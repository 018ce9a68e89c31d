package netsim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// portEvent is one observation at a port, in the order the simulator made
// them: a packet offered to the queue (Enqueue called), a transmission
// start, or a drop.
type portEvent struct {
	kind int
	at   simtime.Time
	p    *packet.Packet
}

const (
	evOffer = iota
	evStart
	evDrop
)

// rateWindow degrades a port to factor times its configured rate for
// transmissions starting in [from, to).
type rateWindow struct {
	from, to simtime.Time
	factor   float64
}

// rate is the line rate the window puts in effect at a start instant.
func (w rateWindow) rate(pt *Port, start simtime.Time) float64 {
	if !start.Before(w.from) && start.Before(w.to) {
		return pt.Rate() * w.factor
	}
	return pt.Rate()
}

// TestPortsMatchLindley is the closed-form oracle for the forwarding model,
// on seeded random layered topologies with processing delays (some zero),
// selective delays, zero and non-zero propagation, bounded and unbounded
// queues, RLI-style references enqueued by OnTxStart taps, rate windows and
// emulated links.
//
// Node side: every packet reaches a node at its previous tx start +
// size/rate + propagation + the link emulator's extra delay (its injection
// instant at the first node), unless the emulator dropped it on the wire;
// the ingress tap sees that instant, and the packet is offered to its output
// port at arrival + processing delay + selective delay.
//
// Port side: a FIFO drop-tail port is Lindley's recursion, with the rate in
// effect at each start. Replaying each port's offers in order, an accepted
// packet starts at max(offer, previous start + its size/rate at that
// previous start), and an offer is dropped iff
// the bytes queued behind the packet in service, plus its own, exceed
// QueueBytes. The queued bytes at an offer are the accepted packets whose
// start is later; at a start equal to the offer instant the closed form
// leaves the order to the events, so the recorded order decides. Every
// recorded tx start and every drop must match.
func TestPortsMatchLindley(t *testing.T) {
	var starts, drops, refs, delayed, degraded, emuDrops int
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		eng := eventsim.New()
		nw := New(eng)

		// Layers: sources, two switch layers, sinks; each layer fully
		// connected to the next.
		var layers [][]*Node
		for _, width := range []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(2)} {
			var layer []*Node
			for range width {
				proc := time.Duration(rng.Intn(3)) * 250 * time.Nanosecond
				layer = append(layer, nw.AddNode(NodeConfig{ProcDelay: proc}))
			}
			layers = append(layers, layer)
		}
		for l := 0; l+1 < len(layers); l++ {
			for _, from := range layers[l] {
				for _, to := range layers[l+1] {
					nw.Connect(from, to, LinkConfig{
						RateBps:     []float64{1e8, 2.5e8, 1e9}[rng.Intn(3)],
						Propagation: time.Duration(rng.Intn(3)) * 500 * time.Nanosecond,
						QueueBytes:  []int{0, 3000, 6000}[rng.Intn(3)],
					})
				}
			}
		}

		// Observations: each port's log, and per packet where and when it
		// must next show up.
		logs := map[*Port][]portEvent{}
		rates := map[*Port]rateWindow{}
		wireDrops := map[*Port]uint64{}
		expArrive := map[*packet.Packet]simtime.Time{}
		expOffer := map[*packet.Packet]simtime.Time{}
		for l, layer := range layers {
			for _, n := range layer {
				n.OnReceive(func(p *packet.Packet, now simtime.Time) {
					if want, ok := expArrive[p]; !ok || now != want {
						t.Fatalf("trial %d: packet %d reached %s at %v, want %v", trial, p.ID, n.Name(), now, want)
					}
					off := now.Add(n.ProcDelay())
					if n.extra != nil {
						if d := n.extra(p, now); d > 0 {
							off = off.Add(d)
							delayed++
						}
					}
					expOffer[p] = off
				})
				n.SetForward(func(n *Node, p *packet.Packet) int {
					if want := expOffer[p]; eng.Now() != want {
						t.Fatalf("trial %d: packet %d forwarded at %s at %v, want %v", trial, p.ID, n.Name(), eng.Now(), want)
					}
					if len(n.Ports()) == 0 {
						return -1
					}
					out := int((p.ID*0x9E3779B97F4A7C15 + uint64(n.ID())) >> 33 % uint64(len(n.Ports())))
					pt := n.Port(out)
					logs[pt] = append(logs[pt], portEvent{evOffer, eng.Now(), p})
					return out
				})
				if l > 0 && rng.Intn(2) == 0 {
					// A pure selective delay: a packet-ID term and an
					// arrival-window term, zero for most packets.
					from := simtime.FromDuration(time.Duration(rng.Intn(200)) * time.Microsecond)
					n.SetSelectiveDelay(func(p *packet.Packet, now simtime.Time) time.Duration {
						d := time.Duration(p.ID%3) * 300 * time.Nanosecond
						if !now.Before(from) && now.Before(from.Add(50*time.Microsecond)) {
							d += 2 * time.Microsecond
						}
						return d
					})
				}
				for _, pt := range n.Ports() {
					refEvery := 0
					if rng.Intn(3) == 0 {
						refEvery = 2 + rng.Intn(4)
					}
					// A rate window on some ports: the hook is read at
					// each start, so a packet queued before the window
					// opens but starting inside it is degraded.
					win := rateWindow{from: simtime.Never, to: simtime.Never, factor: 1}
					if rng.Intn(3) == 0 {
						from := simtime.FromDuration(time.Duration(rng.Intn(300)) * time.Microsecond)
						win = rateWindow{from, from.Add(time.Duration(20+rng.Intn(80)) * time.Microsecond), []float64{0.25, 0.5}[rng.Intn(2)]}
						pt.SetRate(func(now simtime.Time) float64 { return win.rate(pt, now) })
					}
					// A pure link emulator on some ports: extra delay and
					// keyed drops, decided at transmission end.
					if rng.Intn(3) == 0 {
						pt.SetEmulator(func(p *packet.Packet, now simtime.Time) (time.Duration, bool) {
							h := (p.ID ^ uint64(now)) * 0x9E3779B97F4A7C15 >> 40
							return time.Duration(h%4) * 250 * time.Nanosecond, h%16 == 0
						})
					}
					rates[pt] = win
					sent := 0
					pt.OnTxStart(func(p *packet.Packet, now simtime.Time) {
						logs[pt] = append(logs[pt], portEvent{evStart, now, p})
						if win.rate(pt, now) != pt.Rate() {
							degraded++
						}
						done := now.Add(simtime.TxTime(p.Size, win.rate(pt, now)))
						var extra time.Duration
						var drop bool
						if pt.emu != nil {
							extra, drop = pt.emu(p, done)
						}
						if drop {
							// Dropped on the wire: it must never arrive.
							delete(expArrive, p)
							wireDrops[pt]++
						} else {
							expArrive[p] = done.Add(pt.Propagation() + extra)
						}
						if sent++; refEvery > 0 && sent%refEvery == 0 {
							ref := &packet.Packet{ID: n.NewPacketID(), Size: 64, Kind: packet.Reference}
							refs++
							logs[pt] = append(logs[pt], portEvent{evOffer, now, ref})
							pt.Enqueue(ref)
						}
					})
					pt.OnDrop(func(p *packet.Packet, now simtime.Time) {
						logs[pt] = append(logs[pt], portEvent{evDrop, now, p})
					})
				}
			}
		}

		for range 200 + rng.Intn(200) {
			p := &packet.Packet{ID: nw.NewPacketID(), Size: 64 + rng.Intn(1437), Kind: packet.Regular}
			at := simtime.FromDuration(time.Duration(rng.Intn(300_000)) * time.Nanosecond)
			expArrive[p] = at
			nw.Inject(layers[0][rng.Intn(len(layers[0]))], p, at)
		}
		eng.Run()

		for pt, log := range logs {
			s, d := replayLindley(t, pt, log, rates[pt])
			starts += s
			drops += d
			if got := pt.Counters().EmuDrops; got != wireDrops[pt] {
				t.Fatalf("trial %d: %s port %d dropped %d packets on the wire, the emulator %d", trial, pt.node.Name(), pt.index, got, wireDrops[pt])
			}
			emuDrops += int(wireDrops[pt])
		}
	}
	t.Logf("%d tx starts (%d degraded), %d drops, %d emulated drops, %d references, %d selectively delayed arrivals",
		starts, degraded, drops, emuDrops, refs, delayed)
	if drops == 0 || refs == 0 || delayed == 0 || degraded == 0 || emuDrops == 0 {
		t.Fatal("the random topologies exercised too little")
	}
}

// replayLindley checks one port's log against the closed form and returns
// the tx starts and drops it checked.
func replayLindley(t *testing.T, pt *Port, log []portEvent, win rateWindow) (starts, drops int) {
	t.Helper()
	type accepted struct {
		p     *packet.Packet
		start simtime.Time
	}
	var fifo []accepted
	var free simtime.Time // end of the last accepted packet's transmission
	started := 0          // accepted packets whose start is recorded
	for i, ev := range log {
		switch ev.kind {
		case evOffer:
			backlog := 0
			for j, a := range fifo {
				if a.start.After(ev.at) || a.start == ev.at && j >= started {
					backlog += a.p.Size
				}
			}
			dropped := i+1 < len(log) && log[i+1].kind == evDrop && log[i+1].p == ev.p
			q := pt.cfg.QueueBytes
			if want := q > 0 && backlog+ev.p.Size > q; dropped != want {
				t.Fatalf("%s port %d: packet %d offered at %v with %d bytes queued (cap %d): dropped %v, Lindley says %v",
					pt.node.Name(), pt.index, ev.p.ID, ev.at, backlog, q, dropped, want)
			}
			if dropped {
				continue
			}
			start := ev.at
			if free.After(start) {
				start = free
			}
			free = start.Add(simtime.TxTime(ev.p.Size, win.rate(pt, start)))
			fifo = append(fifo, accepted{ev.p, start})
		case evStart:
			if started >= len(fifo) || fifo[started].p != ev.p {
				t.Fatalf("%s port %d: packet %d started out of FIFO order", pt.node.Name(), pt.index, ev.p.ID)
			}
			if want := fifo[started].start; ev.at != want {
				t.Fatalf("%s port %d: packet %d started at %v, Lindley says %v", pt.node.Name(), pt.index, ev.p.ID, ev.at, want)
			}
			started++
			starts++
		case evDrop:
			if i == 0 || log[i-1].kind != evOffer || log[i-1].p != ev.p {
				t.Fatalf("%s port %d: packet %d dropped without being offered", pt.node.Name(), pt.index, ev.p.ID)
			}
			drops++
		}
	}
	if started != len(fifo) {
		t.Fatalf("%s port %d: %d packets accepted, %d transmitted", pt.node.Name(), pt.index, len(fifo), started)
	}
	return starts, drops
}
