package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// TestPacketConservation is the simulator's books-balance invariant: over a
// random topology and workload, every injected packet is either delivered
// at some node or dropped at some queue — never duplicated, never lost in
// the machinery.
func TestPacketConservation(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		eng := eventsim.New()
		nw := New(eng)

		// Random line of 2-6 switches with random rates and tight queues,
		// terminated by a sink.
		nSw := 2 + rng.Intn(5)
		nodes := make([]*Node, 0, nSw+1)
		for i := 0; i < nSw; i++ {
			nodes = append(nodes, nw.AddNode(NodeConfig{ProcDelay: time.Duration(rng.Intn(1000)) * time.Nanosecond}))
		}
		sink := nw.AddNode(NodeConfig{Name: "sink"})
		nodes = append(nodes, sink)
		for i := 0; i < nSw; i++ {
			nw.Connect(nodes[i], nodes[i+1], LinkConfig{
				RateBps:     float64(10+rng.Intn(90)) * 1e6,
				Propagation: time.Duration(rng.Intn(10)) * time.Microsecond,
				QueueBytes:  (1 + rng.Intn(8)) << 10,
			})
			nodes[i].SetForward(func(n *Node, p *packet.Packet) int { return 0 })
		}

		var injected, delivered, dropped uint64
		sink.OnDeliver(func(p *packet.Packet, _ simtime.Time) { delivered++ })
		for i := 0; i < nSw; i++ {
			nodes[i].Port(0).OnDrop(func(p *packet.Packet, _ simtime.Time) { dropped++ })
		}

		n := 200 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			injected++
			nw.Inject(nodes[0], &packet.Packet{
				ID:   nw.NewPacketID(),
				Size: packet.MinSize + rng.Intn(packet.MaxSize-packet.MinSize),
			}, simtime.Time(rng.Int63n(int64(50*time.Millisecond))))
		}
		eng.Run()

		if delivered+dropped != injected {
			t.Fatalf("trial %d: injected %d != delivered %d + dropped %d",
				trial, injected, delivered, dropped)
		}
		// Cross-check against port counters.
		var ctrDrops uint64
		for i := 0; i < nSw; i++ {
			ctrDrops += nodes[i].Port(0).Counters().Drops
		}
		if ctrDrops != dropped {
			t.Fatalf("trial %d: counter drops %d != tap drops %d", trial, ctrDrops, dropped)
		}
		if sink.Delivered() != delivered {
			t.Fatalf("trial %d: node delivered %d != tap %d", trial, sink.Delivered(), delivered)
		}
		if _, err := nw.Audit(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestByteConservation verifies TxBytes accounting: bytes leaving a port
// equal bytes of packets that reached the next node.
func TestByteConservation(t *testing.T) {
	link := LinkConfig{RateBps: 1e8, QueueBytes: 16 << 10}
	eng, nw, src, sw, dst := buildLine(t, LinkConfig{RateBps: 1e9}, link)

	rng := rand.New(rand.NewSource(7))
	var arrivedBytes uint64
	dst.OnDeliver(func(p *packet.Packet, _ simtime.Time) { arrivedBytes += uint64(p.Size) })
	for i := 0; i < 3000; i++ {
		nw.Inject(src, mkpkt(uint64(i+1), packet.MinSize+rng.Intn(1400)),
			simtime.Time(rng.Int63n(int64(20*time.Millisecond))))
	}
	eng.Run()

	if got := sw.Port(0).Counters().TxBytes; got != arrivedBytes {
		t.Fatalf("TxBytes %d != arrived bytes %d", got, arrivedBytes)
	}
}

// TestAuditNamesTheUnbalanced breaks the books three ways on a src -> sw ->
// dst line and checks that Audit names where: a tap that enqueues a packet
// a second time and one that mints a reference it never sends unbalance
// their node, and a port that loses its server strands its queue.
func TestAuditNamesTheUnbalanced(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(src, sw *Node)
		want  []string // substrings of the error
	}{
		{"tap duplicates a packet", func(_, sw *Node) {
			twice := true
			sw.Port(0).OnTxStart(func(p *packet.Packet, _ simtime.Time) {
				if twice {
					twice = false
					sw.Port(0).Enqueue(p)
				}
			})
		}, []string{"node sw: received 4 + minted 0 != delivered 0 + offered to its ports 5", "network: injected 4 + minted 0 != delivered 5"}},
		{"minted packet goes missing", func(src, _ *Node) {
			src.Port(0).OnTxStart(func(*packet.Packet, simtime.Time) { src.NewPacketID() })
		}, []string{"node src: received 4 + minted 4 != delivered 0 + offered to its ports 4", "network: injected 4 + minted 4 != delivered 4"}},
		{"queue loses its server", func(_, sw *Node) { sw.Port(0).armed = true }, []string{
			"port sw[0]->dst: 4 packets left queued, 4 enqueued, 0 transmitted", "network: injected 4 + minted 0 != delivered 0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			link := LinkConfig{RateBps: 1e9}
			eng, nw, src, sw, _ := buildLine(t, link, link)
			if _, err := nw.Audit(); err != nil {
				t.Fatalf("an empty network does not balance: %v", err)
			}
			c.setup(src, sw)
			for i := range 4 {
				nw.Inject(src, mkpkt(uint64(i+1), 1000), simtime.Zero)
			}
			eng.Run()
			_, err := nw.Audit()
			if err == nil {
				t.Fatal("Audit passed")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("Audit error %q does not say %q", err, w)
				}
			}
			if n := strings.Count(err.Error(), "\n") + 1; n != len(c.want) {
				t.Errorf("Audit reported %d imbalances, want %d: %v", n, len(c.want), err)
			}
		})
	}
}
