package netsim

import (
	"time"

	"testing"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// instantLink serializes a small packet in under a nanosecond (TxTime
// truncates), with zero propagation: a hop over it completes at the instant
// it starts.
var instantLink = LinkConfig{RateBps: 1e12}

func port0(*Node, *packet.Packet) int { return 0 }

// TestSameInstantTieRule pins the tie rule on the classes that can be
// scheduled at the current instant, and on dispatch, which cannot. Each case
// is built so that the order the events were scheduled in differs from the
// order the rule gives.
func TestSameInstantTieRule(t *testing.T) {
	t.Run("arrival at now runs by upstream port", func(t *testing.T) {
		eng := eventsim.New()
		nw := New(eng)
		a, c, b := nw.AddNode(NodeConfig{Name: "a"}), nw.AddNode(NodeConfig{Name: "c"}), nw.AddNode(NodeConfig{Name: "b"})
		nw.Connect(c, b, instantLink) // network-wide port 0
		nw.Connect(a, b, instantLink) // port 1
		a.SetForward(port0)
		c.SetForward(port0)
		var order []uint64
		b.OnReceive(func(p *packet.Packet, now simtime.Time) {
			if now != 0 {
				t.Fatalf("packet %d reached b at %v, want 0", p.ID, now)
			}
			order = append(order, p.ID)
		})
		// Injection 1 runs first and schedules its arrival over a->b before
		// injection 2 schedules one over c->b; c->b's lower index wins.
		nw.Inject(a, mkpkt(1, 64), 0)
		nw.Inject(c, mkpkt(2, 64), 0)
		eng.Run()
		if len(order) != 2 || order[0] != 2 || order[1] != 1 {
			t.Fatalf("b received %v, want [2 1]", order)
		}
	})

	t.Run("injection at now runs first, by packet ID", func(t *testing.T) {
		eng := eventsim.New()
		nw := New(eng)
		a, b := nw.AddNode(NodeConfig{Name: "a"}), nw.AddNode(NodeConfig{Name: "b"})
		nw.Connect(a, b, instantLink)
		a.SetForward(port0)
		var order []uint64
		b.OnReceive(func(p *packet.Packet, now simtime.Time) {
			if now != 0 {
				t.Fatalf("packet %d reached b at %v, want 0", p.ID, now)
			}
			order = append(order, p.ID)
		})
		// Source one injects packet 1 at a, which reaches b over a 0 ns link
		// at 0, then pulls packet 4, injected at b at 0; source two injects
		// packet 5 at b at 0. Packet 4's injection is scheduled last but is
		// the least key pending once packet 1's event has run.
		seq := func(steps ...func() (*Node, *packet.Packet)) *Source {
			return &Source{Next: func() (*Node, *packet.Packet, simtime.Time, bool) {
				if len(steps) == 0 {
					return nil, nil, 0, false
				}
				n, p := steps[0]()
				steps = steps[1:]
				return n, p, 0, true
			}}
		}
		nw.Pull(seq(func() (*Node, *packet.Packet) { return a, mkpkt(1, 64) }, func() (*Node, *packet.Packet) { return b, mkpkt(4, 64) }))
		nw.Pull(seq(func() (*Node, *packet.Packet) { return b, mkpkt(5, 64) }))
		eng.Run()
		if len(order) != 3 || order[0] != 4 || order[1] != 5 || order[2] != 1 {
			t.Fatalf("b received %v, want [4 5 1]", order)
		}
	})

	// A tap on a's port enqueues a reference behind packet 1, which started
	// inline at 0 over a 0 ns link, so the port's txNext is due at 0 — and
	// scheduled before packet 2's arrival at a, also due at 0. The arrival
	// offers packet 2 first: the reference still counts as queued, and 64 +
	// 64 bytes overflow the 100-byte queue. Without the reference, packet 1,
	// which started inline, does not count, and packet 2 starts at 0 too.
	for _, withRef := range []bool{true, false} {
		name := map[bool]string{true: "txNext at now runs after every offer", false: "inline start does not count as queued"}[withRef]
		t.Run(name, func(t *testing.T) {
			eng := eventsim.New()
			nw := New(eng)
			a, c, d := nw.AddNode(NodeConfig{Name: "a"}), nw.AddNode(NodeConfig{Name: "c"}), nw.AddNode(NodeConfig{Name: "d"})
			out := nw.Connect(a, d, LinkConfig{RateBps: instantLink.RateBps, QueueBytes: 100})
			nw.Connect(c, a, instantLink)
			a.SetForward(port0)
			c.SetForward(port0)
			var starts []uint64
			out.OnTxStart(func(p *packet.Packet, now simtime.Time) {
				if now != 0 {
					t.Fatalf("packet %d started at %v, want 0", p.ID, now)
				}
				starts = append(starts, p.ID)
				if withRef && p.ID == 1 {
					out.Enqueue(&packet.Packet{ID: 99, Size: 64, Kind: packet.Reference})
				}
			})
			nw.Inject(a, mkpkt(1, 64), 0)
			nw.Inject(c, mkpkt(2, 64), 0)
			eng.Run()
			want, drops := []uint64{1, 2}, uint64(0)
			if withRef {
				want, drops = []uint64{1, 99}, 1
			}
			if got := out.Counters().Drops; got != drops || len(starts) != len(want) || starts[0] != want[0] || starts[1] != want[1] {
				t.Fatalf("a's port started %v with %d drops, want %v with %d", starts, got, want, drops)
			}
		})
	}

	t.Run("dispatch is never at now and follows arrivals", func(t *testing.T) {
		eng := eventsim.New()
		nw := New(eng)
		a, c, d := nw.AddNode(NodeConfig{Name: "a"}), nw.AddNode(NodeConfig{Name: "c"}), nw.AddNode(NodeConfig{Name: "d"})
		out := nw.Connect(a, d, instantLink)
		nw.Connect(c, a, instantLink)
		a.SetForward(port0)
		c.SetForward(port0)
		// A zero selective delay forwards inline; packet 1's 1 ns one defers
		// its forwarding to a dispatch at 1 ns, scheduled at 0 — before
		// packet 2's arrival at 1 ns, which the rule runs first.
		a.SetSelectiveDelay(func(p *packet.Packet, _ simtime.Time) time.Duration {
			if p.ID == 1 {
				return 1
			}
			return 0
		})
		var starts []uint64
		var at []simtime.Time
		out.OnTxStart(func(p *packet.Packet, now simtime.Time) {
			starts = append(starts, p.ID)
			at = append(at, now)
		})
		nw.Inject(a, mkpkt(1, 64), 0)
		nw.Inject(c, mkpkt(2, 64), 1)
		eng.Run()
		if len(starts) != 2 || starts[0] != 2 || starts[1] != 1 || at[0] != 1 || at[1] != 1 {
			t.Fatalf("a's port started %v at %v, want [2 1] at 1 ns", starts, at)
		}
	})
}
