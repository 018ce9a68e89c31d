package netsim

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// buildTandemLine is a src -> sw -> sink line with a rate-limited middle
// link, the minimal topology exercising every typed-event site: injection
// arrival, the arrival a port schedules at tx start, and the txNext that
// starts a queued packet on a busy port.
func buildTandemLine(nw *Network) (src, sw, sink *Node) {
	src = nw.AddNode(NodeConfig{Name: "src"})
	sw = nw.AddNode(NodeConfig{Name: "sw", ProcDelay: 500 * time.Nanosecond})
	sink = nw.AddNode(NodeConfig{Name: "sink"})
	nw.Connect(src, sw, LinkConfig{RateBps: 1e9, Propagation: time.Microsecond})
	nw.Connect(sw, sink, LinkConfig{RateBps: 1e8, Propagation: time.Microsecond})
	fwd := func(n *Node, p *packet.Packet) int { return 0 }
	src.SetForward(fwd)
	sw.SetForward(fwd)
	return src, sw, sink
}

// TestSteadyForwardingZeroAlloc: forwarding a packet through a pulled
// source's injection, processing delay, queueing, transmission and
// propagation — every typed-event site — allocates nothing once queues and
// the event heap have grown to steady state.
func TestSteadyForwardingZeroAlloc(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	src, _, sink := buildTandemLine(nw)

	const batch = 200
	pkts := make([]packet.Packet, batch)
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i + 1), Size: 1000}
	}
	// One pulled source replays the batch from the clock on: arrivals
	// faster than the 1e8 bottleneck drains, so the output queue stays busy
	// and a txNext starts each queued packet.
	var base simtime.Time
	next := 0
	batchSrc := &Source{Next: func() (*Node, *packet.Packet, simtime.Time, bool) {
		if next == len(pkts) {
			return nil, nil, 0, false
		}
		i := next
		next++
		return src, &pkts[i], base.Add(time.Duration(i) * 10 * time.Microsecond), true
	}}
	inject := func() {
		base, next = eng.Now(), 0
		nw.Pull(batchSrc)
		eng.Run()
	}
	inject() // warm-up: grows the event heap and the port fifos

	allocs := testing.AllocsPerRun(10, inject)
	if allocs != 0 {
		t.Fatalf("steady-state forwarding allocated %.1f times per batch of %d packets, want 0",
			allocs, batch)
	}
	if got := sink.Delivered(); got == 0 {
		t.Fatal("no packets delivered; the zero-alloc run did not exercise the path")
	}
}

// TestZeroAllocTracedForwarding is the same gate on a fat-tree-length path
// with ground-truth path tracing on, as every scenario run has it: seven
// nodes (host, ToR, agg, core, agg, ToR, host) record seven hops, which fit
// the packet's inline hop buffer, so tracing adds no allocation either.
func TestZeroAllocTracedForwarding(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	nw.SetTracePaths(true)
	const hops = 7
	nodes := make([]*Node, hops)
	for i := range nodes {
		nodes[i] = nw.AddNode(NodeConfig{ProcDelay: 500 * time.Nanosecond})
		if i > 0 {
			nw.Connect(nodes[i-1], nodes[i], LinkConfig{RateBps: 1e9, Propagation: time.Microsecond})
			nodes[i-1].SetForward(func(*Node, *packet.Packet) int { return 0 })
		}
	}

	const batch = 200
	pkts := make([]packet.Packet, batch)
	var base simtime.Time
	next := 0
	src := &Source{Next: func() (*Node, *packet.Packet, simtime.Time, bool) {
		if next == len(pkts) {
			return nil, nil, 0, false
		}
		i := next
		next++
		pkts[i] = packet.Packet{ID: uint64(i + 1), Size: 1000} // a fresh packet: no hops yet
		return nodes[0], &pkts[i], base.Add(time.Duration(i) * 5 * time.Microsecond), true
	}}
	inject := func() {
		base, next = eng.Now(), 0
		nw.Pull(src)
		eng.Run()
	}
	inject() // warm-up: grows the event heap and the port fifos

	if allocs := testing.AllocsPerRun(10, inject); allocs != 0 {
		t.Fatalf("traced forwarding over %d nodes allocated %.1f times per batch of %d packets, want 0", hops, allocs, batch)
	}
	if got := nodes[hops-1].Delivered(); got == 0 {
		t.Fatal("no packets delivered; the zero-alloc run did not exercise the path")
	}
	if got := pkts[0].Hops; len(got) != hops || got[0] != 0 || got[hops-1] != hops-1 {
		t.Fatalf("path trace = %v, want the %d node IDs in order", got, hops)
	}
}

// TestTxEventOnlyWhenQueued pins what a link hop costs: a packet finding
// every port idle costs one event per node it reaches (its arrival, which
// the upstream port schedules at tx start), and a packet that waited behind
// another at a port costs one more, the txNext that starts it.
func TestTxEventOnlyWhenQueued(t *testing.T) {
	const hops = 4
	eng := eventsim.New()
	nw := New(eng)
	nodes := make([]*Node, hops+1)
	for i := range nodes {
		nodes[i] = nw.AddNode(NodeConfig{ProcDelay: 500 * time.Nanosecond})
		if i > 0 {
			nw.Connect(nodes[i-1], nodes[i], LinkConfig{RateBps: 1e9, Propagation: time.Microsecond})
			nodes[i-1].SetForward(func(*Node, *packet.Packet) int { return 0 })
		}
	}

	nw.Inject(nodes[0], &packet.Packet{ID: 1, Size: 1000}, simtime.Zero)
	if got := eng.Run(); got != hops+1 {
		t.Fatalf("a packet through %d idle ports took %d events, want %d", hops, got, hops+1)
	}
	// Two packets at once: the second waits behind the first at the first
	// port only. It reaches every later node as the first one's transmission
	// there ends, so it starts inline.
	at := eng.Now().Add(time.Millisecond)
	nw.Inject(nodes[0], &packet.Packet{ID: 2, Size: 1000}, at)
	nw.Inject(nodes[0], &packet.Packet{ID: 3, Size: 1000}, at)
	if got := eng.Run(); got != 2*(hops+1)+1 {
		t.Fatalf("two packets, one wait, took %d events, want %d", got, 2*(hops+1)+1)
	}
	if got := nodes[hops].Delivered(); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

// TestTypedDispatchMatchesDirectSemantics re-checks the forwarding timeline
// through the typed-event path against first principles: one packet's
// delivery time must be the analytic sum of processing, serialization and
// propagation along the line.
func TestTypedDispatchMatchesDirectSemantics(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	src, sw, sink := buildTandemLine(nw)

	var deliveredAt simtime.Time
	sink.OnDeliver(func(p *packet.Packet, now simtime.Time) { deliveredAt = now })
	p := &packet.Packet{ID: 1, Size: 1000}
	nw.Inject(src, p, simtime.Zero)
	eng.Run()

	want := simtime.Zero.
		Add(simtime.TxTime(1000, 1e9)). // src serialization (src has no proc delay)
		Add(time.Microsecond).          // src->sw propagation
		Add(500 * time.Nanosecond).     // sw processing
		Add(simtime.TxTime(1000, 1e8)). // bottleneck serialization
		Add(time.Microsecond)           // sw->sink propagation
	if deliveredAt != want {
		t.Fatalf("delivered at %v through typed dispatch, analytic %v", deliveredAt, want)
	}
	if src.Received() != 1 || sw.Received() != 1 || sink.Delivered() != 1 {
		t.Fatalf("counters src=%d sw=%d sink=%d, want 1/1/1",
			src.Received(), sw.Received(), sink.Delivered())
	}
}

// TestFifoMaskWrap exercises the power-of-two ring buffer across several
// growth and wrap cycles.
func TestFifoMaskWrap(t *testing.T) {
	var f fifo
	mk := func(id uint64) *packet.Packet { return &packet.Packet{ID: id, Size: 64} }
	next := uint64(1)
	expect := uint64(1)
	// Interleave pushes and pops so head/tail wrap repeatedly while the
	// buffer grows through 16, 32, 64.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3+round%5; i++ {
			f.push(mk(next))
			next++
		}
		for i := 0; i < 1+round%3 && f.len() > 0; i++ {
			if got := f.pop().ID; got != expect {
				t.Fatalf("round %d: popped %d, want %d", round, got, expect)
			}
			expect++
		}
		if n := len(f.buf); n&(n-1) != 0 {
			t.Fatalf("round %d: buffer length %d not a power of two", round, n)
		}
	}
	for f.len() > 0 {
		if got := f.pop().ID; got != expect {
			t.Fatalf("drain: popped %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d packets, pushed %d", expect-1, next-1)
	}
}
