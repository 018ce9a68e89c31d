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
// them: a packet offered to the queue by a node's event (Enqueue called from
// forwarding, with the tie key of the event that offered it), offered by a
// tx-start tap (an RLI-style reference), a transmission start, or a drop.
type portEvent struct {
	kind int
	at   simtime.Time
	p    *packet.Packet
	key  uint64
}

const (
	evOffer = iota
	evTapOffer
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
// previous start), and an offer is dropped iff the bytes queued behind the
// packet in service, plus its own, exceed QueueBytes. The tie rule fixes
// which packets are queued at an offer at instant t: every offer a node's
// event makes at t runs before the port's departure at t, so a packet that
// starts at t when the wire frees (by txNext) still counts as queued, while
// one that started inline at t — offered to an idle port — does not; for an
// offer a tx-start tap makes at t, the packet starting then is in service.
// Offers that events make at one instant arrive in tie-key order. Every
// recorded tx start and every drop must match.
func TestPortsMatchLindley(t *testing.T) {
	var starts, drops, held, refs, delayed, degraded, emuDrops int
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
		offerKey := map[*packet.Packet]uint64{} // tie key of the event that offers the packet at its node
		via := map[*packet.Packet]*Port{}       // port the packet last started on
		for l, layer := range layers {
			for _, n := range layer {
				n.OnReceive(func(p *packet.Packet, now simtime.Time) {
					if want, ok := expArrive[p]; !ok || now != want {
						t.Fatalf("trial %d: packet %d reached %s at %v, want %v", trial, p.ID, n.Name(), now, want)
					}
					off := now.Add(n.ProcDelay())
					key := classInject | p.ID
					if pt, ok := via[p]; ok {
						key = classArrive | pt.id
					}
					if n.extra != nil {
						if d := n.extra(p, now); d > 0 {
							off = off.Add(d)
							key = classDispatch | p.ID
							delayed++
						}
					}
					expOffer[p] = off
					offerKey[p] = key
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
					logs[pt] = append(logs[pt], portEvent{evOffer, eng.Now(), p, offerKey[p]})
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
						logs[pt] = append(logs[pt], portEvent{kind: evStart, at: now, p: p})
						via[p] = pt
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
							logs[pt] = append(logs[pt], portEvent{kind: evTapOffer, at: now, p: ref})
							pt.Enqueue(ref)
						}
					})
					pt.OnDrop(func(p *packet.Packet, now simtime.Time) {
						logs[pt] = append(logs[pt], portEvent{kind: evDrop, at: now, p: p})
					})
				}
			}
		}

		// Odd trials put sizes on a 125-byte grid and injections on a 1 µs
		// grid, so offers often meet a start at the same nanosecond.
		grid := trial%2 == 1
		for range 200 + rng.Intn(200) {
			p := &packet.Packet{ID: nw.NewPacketID(), Size: 64 + rng.Intn(1437), Kind: packet.Regular}
			at := simtime.FromDuration(time.Duration(rng.Intn(300_000)) * time.Nanosecond)
			if grid {
				p.Size = 125 * (1 + rng.Intn(12))
				at = simtime.FromDuration(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
			expArrive[p] = at
			nw.Inject(layers[0][rng.Intn(len(layers[0]))], p, at)
		}
		eng.Run()

		for pt, log := range logs {
			s, d, h := replayLindley(t, pt, log, rates[pt])
			starts += s
			drops += d
			held += h
			if got := pt.Counters().EmuDrops; got != wireDrops[pt] {
				t.Fatalf("trial %d: %s port %d dropped %d packets on the wire, the emulator %d", trial, pt.node.Name(), pt.index, got, wireDrops[pt])
			}
			emuDrops += int(wireDrops[pt])
		}
	}
	t.Logf("%d tx starts (%d degraded), %d drops, %d emulated drops, %d references, %d selectively delayed arrivals, %d offers meeting a head that starts at their instant",
		starts, degraded, drops, emuDrops, refs, delayed, held)
	if drops == 0 || refs == 0 || delayed == 0 || degraded == 0 || emuDrops == 0 || held == 0 {
		t.Fatal("the random topologies exercised too little")
	}
}

// replayLindley checks one port's log against the closed form and returns
// the tx starts and drops it checked, and the offers that found a head
// starting at their own instant still queued.
func replayLindley(t *testing.T, pt *Port, log []portEvent, win rateWindow) (starts, drops, held int) {
	t.Helper()
	type accepted struct {
		p          *packet.Packet
		start, end simtime.Time
		inline     bool // started inside its own offer: the port was idle
	}
	var fifo []accepted
	started := 0    // accepted packets whose start is recorded
	lastOffer := -1 // the latest event offer in the log
	for i, ev := range log {
		switch ev.kind {
		case evOffer, evTapOffer:
			if ev.kind == evOffer {
				if lastOffer >= 0 && log[lastOffer].at == ev.at && log[lastOffer].key > ev.key {
					t.Fatalf("%s port %d: packet %d (key %#x) offered at %v after packet %d (key %#x)",
						pt.node.Name(), pt.index, ev.p.ID, ev.key, ev.at, log[lastOffer].p.ID, log[lastOffer].key)
				}
				lastOffer = i
				if started > 0 && fifo[started-1].start == ev.at && !fifo[started-1].inline {
					t.Fatalf("%s port %d: packet %d offered at %v after the departure at that instant",
						pt.node.Name(), pt.index, ev.p.ID, ev.at)
				}
			}
			backlog := 0
			for _, a := range fifo {
				if a.start.After(ev.at) {
					backlog += a.p.Size
				} else if a.start == ev.at && ev.kind == evOffer && !a.inline {
					backlog += a.p.Size
					held++
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
			a := accepted{p: ev.p, start: ev.at, inline: true}
			if n := len(fifo); n > 0 {
				prev := fifo[n-1]
				a.start = max(a.start, prev.end)
				a.inline = prev.end <= ev.at && (prev.start.Before(ev.at) || prev.inline)
			}
			a.end = a.start.Add(simtime.TxTime(ev.p.Size, win.rate(pt, a.start)))
			fifo = append(fifo, a)
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
			if i == 0 || log[i-1].kind != evOffer && log[i-1].kind != evTapOffer || log[i-1].p != ev.p {
				t.Fatalf("%s port %d: packet %d dropped without being offered", pt.node.Name(), pt.index, ev.p.ID)
			}
			drops++
		}
	}
	if started != len(fifo) {
		t.Fatalf("%s port %d: %d packets accepted, %d transmitted", pt.node.Name(), pt.index, len(fifo), started)
	}
	return starts, drops, held
}
