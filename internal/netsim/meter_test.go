package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

func TestUtilMeterTracksOfferedLoad(t *testing.T) {
	// Offer a steady 50% load (one 1250-byte packet every 20µs on a 1 Gbps
	// link = 10µs busy per 20µs) and check the EWMA converges near 0.5.
	eng := eventsim.New()
	nw := New(eng)
	src := nw.AddNode(NodeConfig{Name: "src"})
	dst := nw.AddNode(NodeConfig{Name: "dst"})
	nw.Connect(src, dst, LinkConfig{RateBps: 1e9})
	src.SetForward(func(n *Node, p *packet.Packet) int { return 0 })

	m := NewUtilMeter(src.Port(0), 100*time.Microsecond, 0.3)
	m.Start()
	if eng.Pending() != 0 {
		t.Fatalf("starting the meter scheduled %d events", eng.Pending())
	}

	for i := 0; i < 1000; i++ {
		at := simtime.FromDuration(time.Duration(i) * 20 * time.Microsecond)
		nw.Inject(src, &packet.Packet{ID: uint64(i + 1), Size: 1250}, at)
	}
	eng.Run()

	if got := m.Utilization(); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("utilization = %v, want ~0.5", got)
	}
}

func TestUtilMeterIdleLink(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	a := nw.AddNode(NodeConfig{})
	b := nw.AddNode(NodeConfig{})
	nw.Connect(a, b, LinkConfig{RateBps: 1e9})
	m := NewUtilMeter(a.Port(0), time.Millisecond, 0.5)
	m.Start()
	// A packet delivered at b moves the clock 10 periods on; a's link
	// carried nothing.
	nw.Inject(b, &packet.Packet{ID: 1, Size: 100}, simtime.FromDuration(10*time.Millisecond))
	eng.Run()
	if got := m.Utilization(); got != 0 {
		t.Fatalf("idle utilization = %v", got)
	}
}

func TestUtilMeterBeforeFirstSample(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	a := nw.AddNode(NodeConfig{})
	b := nw.AddNode(NodeConfig{})
	nw.Connect(a, b, LinkConfig{RateBps: 1e9})
	m := NewUtilMeter(a.Port(0), time.Second, 0.5)
	m.Start()
	if m.Utilization() != 0 {
		t.Fatal("pre-sample utilization should be 0 (most aggressive adaptive rate)")
	}
}

func TestUtilMeterCappedAtOne(t *testing.T) {
	// Saturate the link; utilization must never exceed 1.
	eng := eventsim.New()
	nw := New(eng)
	src := nw.AddNode(NodeConfig{})
	dst := nw.AddNode(NodeConfig{})
	nw.Connect(src, dst, LinkConfig{RateBps: 1e6})
	src.SetForward(func(n *Node, p *packet.Packet) int { return 0 })
	for i := 0; i < 2000; i++ {
		nw.Inject(src, &packet.Packet{ID: uint64(i + 1), Size: 1500}, simtime.Zero)
	}
	// Each 1500-byte packet takes 12ms at 1 Mbps, so the sampling window
	// must span several serializations for the byte counter to be smooth.
	m := NewUtilMeter(src.Port(0), 50*time.Millisecond, 1.0)
	m.Start()
	eng.Run()
	if got := m.Utilization(); got > 1.0 || got < 0.9 {
		t.Fatalf("saturated utilization = %v, want ~1.0", got)
	}
}

func TestUtilMeterValidation(t *testing.T) {
	eng := eventsim.New()
	nw := New(eng)
	a := nw.AddNode(NodeConfig{})
	b := nw.AddNode(NodeConfig{})
	nw.Connect(a, b, LinkConfig{RateBps: 1e9})
	for _, fn := range []func(){
		func() { NewUtilMeter(a.Port(0), 0, 0.5) },
		func() { NewUtilMeter(a.Port(0), time.Second, 0) },
		func() { NewUtilMeter(a.Port(0), time.Second, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// txLog is one transmission start on the metered port: its instant and
// size.
type txLog struct {
	at   simtime.Time
	size int
}

// tickerEWMA is the meter's reference: the EWMA a sampling event at each
// period boundary start+k·period, k = 1 … n, computes from the port's byte
// counter, when it runs before any transmission starting at its own instant
// — so boundary T counts the bytes of every start strictly before T, and
// normalizes by the rate in effect at T. ewma[k-1] is the estimate after
// boundary k.
func tickerEWMA(log []txLog, start simtime.Time, period time.Duration, alpha float64, rate func(simtime.Time) float64, n int) []float64 {
	ewma := make([]float64, n)
	var cur, lastBytes uint64
	lastAt := start
	i := 0
	for k := 1; k <= n; k++ {
		at := start.Add(time.Duration(k) * period)
		for ; i < len(log) && log[i].at < at; i++ {
			cur += uint64(log[i].size)
		}
		inst := simtime.Rate(int64(cur-lastBytes), lastAt, at) / rate(at)
		if inst > 1 {
			inst = 1
		}
		if k == 1 {
			ewma[0] = inst
		} else {
			ewma[k-1] = alpha*inst + (1-alpha)*ewma[k-2]
		}
		lastBytes, lastAt = cur, at
	}
	return ewma
}

// TestUtilMeterMatchesTicker checks the tickless meter against tickerEWMA bit
// for bit on seeded random loads: bursts and idle gaps spanning many periods,
// transmissions starting exactly on boundaries, and a rate Link degrading the
// link in windows. The meter is read at every transmission start on its port
// (where a sender reads it, after its own tap) and at every delivery
// downstream (instants that are not transmission starts), and at the end.
func TestUtilMeterMatchesTicker(t *testing.T) {
	const period = 40 * time.Microsecond
	onBoundary := 0
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		eng := eventsim.New()
		nw := New(eng)
		sw := nw.AddNode(NodeConfig{Name: "sw", ProcDelay: 500 * time.Nanosecond})
		dst := nw.AddNode(NodeConfig{Name: "dst"})
		port := nw.Connect(sw, dst, LinkConfig{RateBps: 1e9, Propagation: time.Microsecond})
		sw.SetForward(func(*Node, *packet.Packet) int { return 0 })
		rate := func(now simtime.Time) float64 {
			if now.Duration()/(300*time.Microsecond)%3 == 1 {
				return 2.5e8
			}
			return 1e9
		}
		port.SetLink(rated{port.Link(), rate})

		alpha := []float64{0.3, 0.5, 1}[trial%3]
		m := NewUtilMeter(port, period, alpha)
		m.Start()
		if eng.Pending() != 0 {
			t.Fatalf("trial %d: starting the meter scheduled %d events", trial, eng.Pending())
		}

		var log []txLog
		type read struct {
			at simtime.Time
			u  float64
		}
		var reads []read
		port.OnTxStart(func(p *packet.Packet, now simtime.Time) {
			reads = append(reads, read{now, m.Utilization()})
			log = append(log, txLog{now, p.Size})
			if now.Duration()%period == 0 {
				onBoundary++
			}
		})
		dst.OnDeliver(func(_ *packet.Packet, now simtime.Time) {
			reads = append(reads, read{now, m.Utilization()})
		})

		// Bursts at a random rate, separated by idle gaps of up to 8
		// periods; some injections land on a boundary minus the switch's
		// processing delay, so on an idle link their transmission starts on
		// it.
		at := simtime.Zero
		for i := 0; i < 2000; i++ {
			switch r := rng.Intn(100); {
			case r < 3:
				at = at.Add(time.Duration(rng.Intn(8*int(period))) + period)
			case r < 10:
				k := at.Duration()/period + 1
				at = simtime.FromDuration(k*period - 500*time.Nanosecond)
			default:
				at = at.Add(time.Duration(rng.Intn(4000)) * time.Nanosecond)
			}
			nw.Inject(sw, mkpkt(uint64(i+1), 64+rng.Intn(1437)), at)
		}
		eng.Run()
		reads = append(reads, read{eng.Now(), m.Utilization()})

		ref := tickerEWMA(log, simtime.Zero, period, alpha, rate, int(eng.Now().Duration()/period))
		busy := false
		for _, r := range reads {
			var want float64
			if k := int(r.at.Duration() / period); k > 0 {
				want = ref[k-1]
			}
			if math.Float64bits(r.u) != math.Float64bits(want) {
				t.Fatalf("trial %d: utilization read at %v = %v, ticker reference %v", trial, r.at, r.u, want)
			}
			busy = busy || r.u > 0
		}
		if !busy || eng.Pending() != 0 {
			t.Fatalf("trial %d: no read saw a busy link, or %d events pending after Run", trial, eng.Pending())
		}
	}
	if onBoundary == 0 {
		t.Fatal("no transmission started on a period boundary; the test lost its tie case")
	}
}

// rated replaces the rate of the link beneath with a function of the start
// instant.
type rated struct {
	Link
	rate func(simtime.Time) float64
}

func (r rated) Rate(start simtime.Time) float64 { return r.rate(start) }
