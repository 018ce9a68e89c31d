package netsim

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// buildLine constructs src -> sw -> dst with the given link configs and a
// forwarding function that always uses port 0.
func buildLine(t *testing.T, l1, l2 LinkConfig) (*eventsim.Engine, *Network, *Node, *Node, *Node) {
	t.Helper()
	eng := eventsim.New()
	nw := New(eng)
	src := nw.AddNode(NodeConfig{Name: "src"})
	sw := nw.AddNode(NodeConfig{Name: "sw"})
	dst := nw.AddNode(NodeConfig{Name: "dst"})
	nw.Connect(src, sw, l1)
	nw.Connect(sw, dst, l2)
	alwaysPort0 := func(n *Node, p *packet.Packet) int { return 0 }
	src.SetForward(alwaysPort0)
	sw.SetForward(alwaysPort0)
	return eng, nw, src, sw, dst
}

func mkpkt(id uint64, size int) *packet.Packet {
	return &packet.Packet{ID: id, Size: size, Kind: packet.Regular}
}

func TestSinglePacketLatency(t *testing.T) {
	// 1000-byte packet over two 1 Gbps links with 1 µs propagation each and
	// 500 ns processing at the switch:
	//   tx1 8µs + prop 1µs + proc 0.5µs + tx2 8µs + prop 1µs = 18.5µs
	link := LinkConfig{RateBps: 1e9, Propagation: time.Microsecond}
	eng, nw, src, sw, dst := buildLine(t, link, link)
	sw.proc = 500 * time.Nanosecond

	var arrived simtime.Time
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { arrived = now })

	nw.Inject(src, mkpkt(1, 1000), simtime.Zero)
	eng.Run()

	want := simtime.FromDuration(18500 * time.Nanosecond)
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if dst.Delivered() != 1 {
		t.Fatalf("delivered = %d", dst.Delivered())
	}
}

func TestFIFONoReordering(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, _, dst := buildLine(t, link, link)

	var order []uint64
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { order = append(order, p.ID) })

	// Burst of back-to-back packets of mixed sizes injected at one instant.
	sizes := []int{1500, 64, 900, 64, 1500, 200}
	for i, s := range sizes {
		nw.Inject(src, mkpkt(uint64(i+1), s), simtime.Zero)
	}
	eng.Run()

	if len(order) != len(sizes) {
		t.Fatalf("delivered %d, want %d", len(order), len(sizes))
	}
	for i := range order {
		if order[i] != uint64(i+1) {
			t.Fatalf("reordered: %v", order)
		}
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	// Two packets injected simultaneously: second waits for the first's
	// serialization. 1500B at 1Gbps = 12µs each.
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, _, dst := buildLine(t, link, link)

	var arrivals []simtime.Time
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { arrivals = append(arrivals, now) })

	nw.Inject(src, mkpkt(1, 1500), simtime.Zero)
	nw.Inject(src, mkpkt(2, 1500), simtime.Zero)
	eng.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := arrivals[1].Sub(arrivals[0])
	if gap != 12*time.Microsecond {
		t.Fatalf("inter-arrival = %v, want 12µs (one serialization)", gap)
	}
}

func TestDropTailBounded(t *testing.T) {
	// Queue bound of 3000 bytes on the second hop; slow second link so the
	// queue builds. First link is fast so all packets arrive quickly.
	l1 := LinkConfig{RateBps: 1e10}
	l2 := LinkConfig{RateBps: 1e6, QueueBytes: 3000}
	eng, nw, src, sw, dst := buildLine(t, l1, l2)

	var drops int
	sw.Port(0).OnDrop(func(p *packet.Packet, now simtime.Time) { drops++ })

	for i := 0; i < 10; i++ {
		nw.Inject(src, mkpkt(uint64(i+1), 1500), simtime.Zero)
	}
	eng.Run()

	// Port 0 of sw: 1 in service + 2 queued (3000 bytes) fit; 7 dropped.
	if drops != 7 {
		t.Fatalf("drops = %d, want 7", drops)
	}
	c := sw.Port(0).Counters()
	if c.Drops != 7 || c.TxPackets != 3 {
		t.Fatalf("counters = %+v", c)
	}
	if dst.Delivered() != 3 {
		t.Fatalf("delivered = %d, want 3", dst.Delivered())
	}
}

func TestUnboundedQueueNeverDrops(t *testing.T) {
	l1 := LinkConfig{RateBps: 1e10}
	l2 := LinkConfig{RateBps: 1e6} // QueueBytes 0 = unbounded
	eng, nw, src, sw, dst := buildLine(t, l1, l2)
	for i := 0; i < 100; i++ {
		nw.Inject(src, mkpkt(uint64(i+1), 1500), simtime.Zero)
	}
	eng.Run()
	if c := sw.Port(0).Counters(); c.Drops != 0 {
		t.Fatalf("drops = %d on unbounded queue", c.Drops)
	}
	if dst.Delivered() != 100 {
		t.Fatalf("delivered = %d", dst.Delivered())
	}
}

func TestTxStartTapTiming(t *testing.T) {
	// The tap must fire exactly when serialization begins, i.e. the
	// delivery time minus tx time minus propagation.
	link := LinkConfig{RateBps: 1e9, Propagation: 5 * time.Microsecond}
	eng, nw, src, sw, dst := buildLine(t, link, link)

	var txAt, rxAt simtime.Time
	sw.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) { txAt = now })
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { rxAt = now })

	nw.Inject(src, mkpkt(1, 1000), simtime.Zero)
	eng.Run()

	wantGap := 8*time.Microsecond + 5*time.Microsecond // tx + prop
	if got := rxAt.Sub(txAt); got != wantGap {
		t.Fatalf("rx-tx gap = %v, want %v", got, wantGap)
	}
}

func TestInjectionFromTap(t *testing.T) {
	// A tap that injects one extra packet per observed packet (an RLI
	// sender in miniature). The injected packet must be transmitted after
	// the current one, in order.
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, dst := buildLine(t, link, link)

	injected := false
	var order []uint64
	sw.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) {
		order = append(order, p.ID)
		if !injected {
			injected = true
			sw.Port(0).Enqueue(&packet.Packet{ID: 999, Size: 64, Kind: packet.Reference})
		}
	})
	nw.Inject(src, mkpkt(1, 1500), simtime.Zero)
	nw.Inject(src, mkpkt(2, 1500), simtime.FromDuration(time.Microsecond))
	eng.Run()

	if dst.Delivered() != 3 {
		t.Fatalf("delivered = %d, want 3", dst.Delivered())
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 999 || order[2] != 2 {
		t.Fatalf("tx order = %v, want [1 999 2]", order)
	}
}

// TestInjectionFromTapAtZeroTxTime is the same sender in miniature on a link
// fast enough that a 64-byte frame serializes in 0 ns (simtime.TxTime
// truncates; any rate of 512 Gbps or more). The port is free again the
// instant it starts, yet the reference a tap enqueues must still queue
// behind the frame being started: its tx start comes after the frame's
// taps have all run, and it reaches the next node after the frame.
func TestInjectionFromTapAtZeroTxTime(t *testing.T) {
	link := LinkConfig{RateBps: 1e12, Propagation: time.Microsecond}
	if d := simtime.TxTime(64, link.RateBps); d != 0 {
		t.Fatalf("64 B at %g bps serializes in %v; the test needs 0", link.RateBps, d)
	}
	eng, nw, src, sw, dst := buildLine(t, link, link)

	injected := false
	sw.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) {
		if !injected {
			injected = true
			sw.Port(0).Enqueue(&packet.Packet{ID: 999, Size: 64, Kind: packet.Reference})
		}
	})
	var started, arrived []uint64
	sw.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) { started = append(started, p.ID) })
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { arrived = append(arrived, p.ID) })
	nw.Inject(src, mkpkt(1, 64), simtime.Zero)
	eng.Run()

	if len(started) != 2 || started[0] != 1 || started[1] != 999 {
		t.Fatalf("tx-start taps saw %v, want [1 999]", started)
	}
	if len(arrived) != 2 || arrived[0] != 1 || arrived[1] != 999 {
		t.Fatalf("delivery order %v, want [1 999]", arrived)
	}
}

func TestGroundTruthPathTracing(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, dst := buildLine(t, link, link)
	nw.SetTracePaths(true)

	p := mkpkt(1, 100)
	nw.Inject(src, p, simtime.Zero)
	eng.Run()

	want := []int32{int32(src.ID()), int32(sw.ID()), int32(dst.ID())}
	if len(p.Hops) != 3 {
		t.Fatalf("hops = %v, want %v", p.Hops, want)
	}
	for i := range want {
		if p.Hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", p.Hops, want)
		}
	}
}

// TestOnReceiveTapSeesIngress pins ingress at a node with a processing
// delay: the packet's one arrival event fires proc after it arrived, and
// runs the tap with the arrival instant; a mark the tap writes is what
// egress sees, and the node counts the packet.
func TestOnReceiveTapSeesIngress(t *testing.T) {
	link := LinkConfig{RateBps: 1e9, Propagation: time.Microsecond}
	eng, nw, src, sw, _ := buildLine(t, link, link)
	sw.proc = 500 * time.Nanosecond

	var at, fired, txAt simtime.Time
	var egressTOS uint8
	sw.OnReceive(func(p *packet.Packet, now simtime.Time) {
		at, fired = now, eng.Now()
		p.TOS = 7
	})
	sw.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) { txAt, egressTOS = now, p.TOS })
	nw.Inject(src, mkpkt(1, 1000), simtime.Zero)
	eng.Run()

	// Ingress at sw: tx 8µs + prop 1µs after injection at src (src has no
	// processing delay and empty queue).
	arrival := simtime.FromDuration(9 * time.Microsecond)
	if at != arrival {
		t.Fatalf("ingress tap saw %v, want the arrival %v", at, arrival)
	}
	if want := arrival.Add(sw.proc); fired != want || txAt != want {
		t.Fatalf("arrival event at %v, tx start at %v; want both at arrival + proc = %v", fired, txAt, want)
	}
	if egressTOS != 7 {
		t.Fatalf("egress saw TOS %d, want the 7 written at ingress", egressTOS)
	}
	if sw.Received() != 1 {
		t.Fatalf("received = %d", sw.Received())
	}
}

func TestForwardToBadPortPanics(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, sw, _ := buildLine(t, link, link)
	sw.SetForward(func(n *Node, p *packet.Packet) int { return 7 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad port index")
		}
	}()
	nw.Inject(src, mkpkt(1, 100), simtime.Zero)
	eng.Run()
}

func TestZeroSizePacketPanics(t *testing.T) {
	link := LinkConfig{RateBps: 1e9}
	_, _, src, _, _ := buildLine(t, link, link)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-size packet")
		}
	}()
	src.Port(0).Enqueue(&packet.Packet{ID: 1, Size: 0})
}

func TestConnectZeroRatePanics(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	a := nw.AddNode(NodeConfig{})
	b := nw.AddNode(NodeConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-rate link")
		}
	}()
	nw.Connect(a, b, LinkConfig{})
}

func TestWorkConservation(t *testing.T) {
	// A saturated port transmits continuously: total tx time equals the sum
	// of serialization times, so the last delivery happens at exactly
	// n*txTime after the first transmission starts.
	link := LinkConfig{RateBps: 1e9}
	eng, nw, src, _, dst := buildLine(t, link, link)

	const n = 50
	for i := 0; i < n; i++ {
		nw.Inject(src, mkpkt(uint64(i+1), 1250), simtime.Zero) // 10µs each
	}
	var last simtime.Time
	dst.OnDeliver(func(p *packet.Packet, now simtime.Time) { last = now })
	eng.Run()

	// src serializes 50 packets back to back (10µs each), then sw does the
	// same but pipelined; last delivery = 10µs*50 (src) + 10µs (sw's last).
	want := simtime.FromDuration(510 * time.Microsecond)
	if last != want {
		t.Fatalf("last delivery = %v, want %v", last, want)
	}
}

func TestFifoGrowth(t *testing.T) {
	var f fifo
	for i := 0; i < 100; i++ {
		f.push(&packet.Packet{ID: uint64(i)})
	}
	if f.len() != 100 {
		t.Fatalf("len = %d", f.len())
	}
	for i := 0; i < 100; i++ {
		if got := f.pop(); got.ID != uint64(i) {
			t.Fatalf("pop %d = %d", i, got.ID)
		}
	}
	if f.len() != 0 {
		t.Fatalf("len after drain = %d", f.len())
	}
}

func TestFifoInterleavedWrap(t *testing.T) {
	var f fifo
	id := uint64(0)
	next := uint64(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			id++
			f.push(&packet.Packet{ID: id})
		}
		for i := 0; i < 2; i++ {
			next++
			if got := f.pop(); got.ID != next {
				t.Fatalf("round %d: pop = %d, want %d", round, got.ID, next)
			}
		}
	}
	for f.len() > 0 {
		next++
		if got := f.pop(); got.ID != next {
			t.Fatalf("drain: pop = %d, want %d", got.ID, next)
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	var f fifo
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.pop()
}
