package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// TestAddNodeRejectsNegativeProcDelay: a node's processing delay is fixed
// at creation, so creation is where a negative one is refused.
func TestAddNodeRejectsNegativeProcDelay(t *testing.T) {
	nw := New(eventsim.New())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.AddNode(NodeConfig{Name: "sw", ProcDelay: -time.Nanosecond})
}

// TestSetPropagationChangesLatency lengthens the switch's output link by
// installing a Wire with a longer propagation: Link reads it back, and the
// packet's flight takes it.
func TestSetPropagationChangesLatency(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, dst := buildLine(t, link, link)

	if got := sw.Port(0).Link(); got != (Wire{RateBps: 1e9}) {
		t.Fatalf("Link = %+v before SetLink, want the configured Wire", got)
	}
	sw.Port(0).SetLink(Wire{RateBps: 1e9, Propagation: 450 * time.Microsecond})
	if got, _ := sw.Port(0).Link().Flight(nil, simtime.Zero); got != 450*time.Microsecond {
		t.Fatalf("Propagation = %v", got)
	}

	var at simtime.Time
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { at = now })
	nw.Inject(src, mkpkt(1, 1000), simtime.Zero)
	eng.Run()

	// tx(8µs) + tx(8µs) + prop(450µs) = 466µs.
	if want := simtime.FromDuration(466 * time.Microsecond); at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

// TestSetPropagationRejectsNegative: a link's flight is read at
// transmission start, so that is where a negative one panics — an arrival
// before the transmission ends.
func TestSetPropagationRejectsNegative(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, _ := buildLine(t, link, link)
	sw.Port(0).SetLink(Wire{RateBps: 1e9, Propagation: -time.Microsecond})
	nw.Inject(src, mkpkt(1, 1500), simtime.Zero)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng.Run()
}

// marksSeen is a Link recording the TOS byte each Flight call sees.
type marksSeen struct {
	Link
	seen *[]uint8
}

func (l marksSeen) Flight(p *packet.Packet, end simtime.Time) (time.Duration, bool) {
	*l.seen = append(*l.seen, p.TOS)
	return l.Link.Flight(p, end)
}

// TestFlightSeesTxStartTaps: a port's tx-start taps run before its Link is
// asked for the flight, so Flight reads a field a tap writes (a core
// switch's TOS mark).
func TestFlightSeesTxStartTaps(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, _ := buildLine(t, link, link)
	var seen []uint8
	sw.Port(0).SetLink(marksSeen{sw.Port(0).Link(), &seen})
	sw.Port(0).OnTxStart(func(p *packet.Packet, _ simtime.Time) { p.TOS = 7 })
	nw.Inject(src, mkpkt(1, 1500), simtime.Zero)
	eng.Run()
	if !reflect.DeepEqual(seen, []uint8{7}) {
		t.Fatalf("Flight saw TOS %v, want [7]", seen)
	}
}

// TestConnectRejectsNegativeConfig: a link's propagation and its queue bound
// are fixed when it is connected, so Connect refuses a negative one, naming
// the link.
func TestConnectRejectsNegativeConfig(t *testing.T) {
	for _, cfg := range []LinkConfig{
		{RateBps: 1e9, Propagation: -time.Nanosecond},
		{RateBps: 1e9, QueueBytes: -1},
	} {
		func() {
			nw := New(eventsim.New())
			a, b := nw.AddNode(NodeConfig{Name: "a"}), nw.AddNode(NodeConfig{Name: "b"})
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "a->b") {
					t.Errorf("Connect(%+v) panicked with %q, want a panic naming the link a->b", cfg, msg)
				}
			}()
			nw.Connect(a, b, cfg)
		}()
	}
}

func TestNodeNetworkAccessor(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	n := nw.AddNode(NodeConfig{})
	if n.Network() != nw {
		t.Fatal("Network accessor broken")
	}
	if nw.Node(n.ID()) != n {
		t.Fatal("Node lookup broken")
	}
	if nw.Nodes() != 1 {
		t.Fatalf("Nodes = %d", nw.Nodes())
	}
}

// TestNewPacketIDUnique pins the two ID spaces: the network's counter is
// dense in call order, and the IDs a node mints are a function of that node's
// own count alone — whatever other nodes and the network counter did in
// between — and never collide with the dense ones or with another node's.
func TestNewPacketIDUnique(t *testing.T) {
	mint := func(interleave bool) (dense, a, b []uint64) {
		nw := New(eventsim.New())
		na, nb := nw.AddNode(NodeConfig{}), nw.AddNode(NodeConfig{})
		for i := 0; i < 1000; i++ {
			dense = append(dense, nw.NewPacketID())
			a = append(a, na.NewPacketID())
			if interleave {
				b = append(b, nb.NewPacketID())
			}
		}
		return dense, a, b
	}
	dense, a, b := mint(true)
	_, alone, _ := mint(false)
	if !reflect.DeepEqual(a, alone) {
		t.Fatal("a node's IDs changed with what another node minted in between")
	}
	seen := map[uint64]bool{}
	for i, ids := range [][]uint64{dense, a, b} {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate packet ID %#x (space %d)", id, i)
			}
			seen[id] = true
		}
	}
	for i, id := range dense {
		if id != uint64(i)+1 {
			t.Fatalf("network ID %d is %d, want the dense counter", i, id)
		}
	}
}

// TestSetRateChangesTxTime degrades the switch's output link to a tenth of
// its rate for transmissions starting in [1ms, 3ms), the way the scenario
// engine's link-degrade fault does: a packet starting inside the window
// serializes at the degraded rate, one starting after it at the configured
// rate again.
func TestSetRateChangesTxTime(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, dst := buildLine(t, link, link)

	arrivals := map[uint64]simtime.Time{}
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { arrivals[p.ID] = now })
	start, end := simtime.FromDuration(time.Millisecond), simtime.FromDuration(3*time.Millisecond)
	sw.Port(0).SetLink(windowed{sw.Port(0).Link(), rateWindow{start, end, 0.1}})
	injectAt := []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond}
	for i, at := range injectAt {
		nw.Inject(src, mkpkt(uint64(i+1), 1500), simtime.FromDuration(at))
	}
	eng.Run()

	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	lat := func(id uint64) time.Duration { return arrivals[id].Sub(simtime.FromDuration(injectAt[id-1])) }
	// The second packet's last hop serializes at 100 Mbps instead of 1 Gbps:
	// 1500B costs 120µs instead of 12µs, a 108µs delta.
	want := simtime.TxTime(1500, 1e8) - simtime.TxTime(1500, 1e9)
	if d := lat(2) - lat(1); d != want {
		t.Fatalf("degrade delta = %v, want %v", d, want)
	}
	if lat(3) != lat(1) {
		t.Fatalf("latency after the window %v, before it %v", lat(3), lat(1))
	}
	if got := sw.Port(0).Link().(windowed).Link; got != (Wire{RateBps: 1e9}) {
		t.Fatalf("the degraded link wraps %+v, want the configured Wire", got)
	}
}

// TestSetRateRejectsNonPositive: a link's rate is read at transmission
// start, so that is where a non-positive rate panics.
func TestSetRateRejectsNonPositive(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, _ := buildLine(t, link, link)
	sw.Port(0).SetLink(Wire{})
	nw.Inject(src, mkpkt(1, 1500), simtime.Zero)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng.Run()
}
