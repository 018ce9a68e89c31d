package measure

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/lda"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// key returns a distinct flow key per index.
func key(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     packet.MustParseAddr("10.1.0.1"),
		Dst:     packet.Addr(0x0AC80000 + uint32(i)), // 10.200.x.x
		SrcPort: 1000,
		DstPort: 2000,
		Proto:   packet.ProtoUDP,
	}
}

// segment replays a synthetic measured segment through a dispatch: packets
// of nFlows flows cross with a fixed per-flow delay (flow i delays
// (i+1)*100µs), each packet stamped at the start point exactly as an RLI
// sender would.
func segment(d *Dispatch, nFlows, pktsPerFlow int) {
	id := uint64(1)
	at := simtime.Time(0)
	for n := 0; n < pktsPerFlow; n++ {
		for i := 0; i < nFlows; i++ {
			p := &packet.Packet{ID: id, Key: key(i), Size: 1000, Kind: packet.Regular}
			id++
			at = at.Add(10 * time.Microsecond)
			p.SegmentStart = at
			d.TapStart(p, at)
			d.TapEnd(p, at.Add(time.Duration(i+1)*100*time.Microsecond))
		}
	}
}

func TestTruthAccumulates(t *testing.T) {
	truth := NewTruth()
	d := NewDispatch(truth)
	segment(d, 4, 50)
	if truth.Flows() != 4 || truth.Packets() != 200 {
		t.Fatalf("truth saw %d flows / %d packets, want 4 / 200", truth.Flows(), truth.Packets())
	}
	for i := 0; i < 4; i++ {
		m, ok := truth.FlowMean(key(i))
		if !ok {
			t.Fatalf("flow %d missing from truth", i)
		}
		want := time.Duration(i+1) * 100 * time.Microsecond
		if m != want {
			t.Fatalf("flow %d true mean %v, want %v", i, m, want)
		}
	}
}

// TestBaselinesEstimateConstantDelays drives every baseline over an ideal
// constant-delay segment, where each mechanism's estimate must be (nearly)
// exact: sampling matches true per-packet delays, multiflow's two stamps
// agree with the constant delay (modulo quantization), and LDA's usable
// buckets reproduce the aggregate mean.
func TestBaselinesEstimateConstantDelays(t *testing.T) {
	truth := NewTruth()
	samp := NewSampled(4, 7)
	mf := NewMultiflow(-1) // exact timestamps
	ld := NewLDA(lda.Config{})
	d := NewDispatch(truth, samp, mf, ld)
	segment(d, 4, 64)

	comps := Compare(truth, samp.Finalize(), mf.Finalize(), ld.Finalize())
	for _, c := range comps {
		switch c.Estimator {
		case "netflow-sample":
			if c.Flows == 0 {
				t.Fatal("sampling baseline estimated no flows")
			}
			if c.MedianRelErr > 1e-9 {
				t.Fatalf("sampling on constant delays has median error %v, want ~0", c.MedianRelErr)
			}
			if c.Overhead.SampledRecords == 0 {
				t.Fatal("sampling recorded no overhead")
			}
		case "multiflow":
			if c.Flows != 4 {
				t.Fatalf("multiflow estimated %d flows, want 4", c.Flows)
			}
			if c.MedianRelErr > 1e-9 {
				t.Fatalf("multiflow exact-stamp median error %v, want ~0", c.MedianRelErr)
			}
		case "lda":
			if !math.IsNaN(c.MedianRelErr) {
				t.Fatal("LDA must not report per-flow error")
			}
			// Lossless buckets reproduce the aggregate almost exactly; the
			// residual is multi-bank reweighting (packets sampled into
			// several banks count once per bank).
			if math.IsNaN(c.AggRelErr) || c.AggRelErr > 0.02 {
				t.Fatalf("LDA aggregate error %v, want < 2%%", c.AggRelErr)
			}
			if c.Overhead.SampledBytes == 0 {
				t.Fatal("LDA recorded no sketch overhead")
			}
		}
	}
}

// TestRegistryNamesAndErrors pins the registry surface: six estimators,
// rli first, and unknown names rejected with the valid list.
func TestRegistryNamesAndErrors(t *testing.T) {
	names := Names()
	if len(names) != 6 || names[0] != "rli" {
		t.Fatalf("Names() = %v, want rli first of six", names)
	}
	for _, n := range names {
		if !Registered(n) {
			t.Fatalf("Names() lists %q but Registered denies it", n)
		}
	}
	_, err := New("bogus", Config{})
	if err == nil {
		t.Fatal("unknown estimator accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error %q does not list valid estimator %q", err, n)
		}
	}
	if _, err := New("rli", Config{}); err == nil {
		t.Fatal("rli without a demux accepted")
	}
}

// TestRLITapMatchesReceiverObserve pins the refactor's equivalence
// contract: feeding packets through the RLI estimator's Tap produces the
// identical receiver state as calling Observe directly.
func TestRLITapMatchesReceiverObserve(t *testing.T) {
	mk := func() (*RLI, *core.Receiver) {
		cfg := core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}}
		est, err := NewRLI("seg", cfg)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := core.NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return est, rx
	}
	est, rx := mk()

	feed := func(tap TapFunc) {
		at := simtime.Time(0)
		for i := 0; i < 300; i++ {
			at = at.Add(50 * time.Microsecond)
			if i%10 == 0 {
				ref := &packet.Packet{ID: uint64(1000 + i), Kind: packet.Reference, Size: 64,
					Ref: packet.RefPayload{Sender: 1, Seq: uint32(i)}}
				ref.Ref.Timestamp = at.Add(-200 * time.Microsecond)
				tap(ref, at)
				continue
			}
			p := &packet.Packet{ID: uint64(i), Key: key(i % 3), Size: 1000, Kind: packet.Regular}
			p.SegmentStart = at.Add(-150 * time.Microsecond)
			tap(p, at)
		}
	}
	feed(est.Tap)
	feed(rx.Observe)

	if est.Receiver().Counters() != rx.Counters() {
		t.Fatalf("counters diverge: %+v vs %+v", est.Receiver().Counters(), rx.Counters())
	}
	a, b := est.Receiver().Results(1), rx.Results(1)
	if len(a) != len(b) {
		t.Fatalf("result lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow result %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	rep := est.Finalize()
	if rep.Overhead.InjectedPkts != 30 || rep.Overhead.InjectedBytes != 30*64 {
		t.Fatalf("reference overhead %+v, want 30 pkts / %d bytes", rep.Overhead, 30*64)
	}
}

// TestZeroAllocDispatchSteadyState is the shared-tap allocation guarantee:
// once every estimator's per-flow state exists, fanning a packet to the
// full default estimator set (truth + rli + lda + netflow-sample +
// multiflow) plus the secret-key sampler allocates nothing. Two packets
// per run, so the keyed sampler is held on both of its paths: q is in its
// 1-in-32 sample set (timestamp, match, fold), p is not (two hash
// evaluations and out).
func TestZeroAllocDispatchSteadyState(t *testing.T) {
	truth := NewTruth()
	rli, err := NewRLI("seg", core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const hashKey, hashRate = 0x243f6a8885a308d3, 32
	d := NewDispatch(truth, rli, NewLDA(lda.Config{}), NewSampled(4, 7), NewMultiflow(0),
		NewHashSampled(hashRate, hashKey))

	// Warm up: establish flow state, stream state and map capacity.
	segment(d, 8, 64)

	p := &packet.Packet{ID: 5, Key: key(1), Size: 1000, Kind: packet.Regular}
	q := &packet.Packet{ID: 6, Key: key(2), Size: 1000, Kind: packet.Regular}
	for !ShouldSample(hashKey, q.ID, hashRate) {
		q.ID++
	}
	if ShouldSample(hashKey, p.ID, hashRate) {
		t.Fatalf("packet %d is in the keyed sample set; the unsampled path needs one that is not", p.ID)
	}
	at := simtime.Time(1 << 30)
	allocs := testing.AllocsPerRun(200, func() {
		for _, pkt := range [...]*packet.Packet{p, q} {
			at = at.Add(10 * time.Microsecond)
			pkt.SegmentStart = at
			d.TapStart(pkt, at)
			d.TapEnd(pkt, at.Add(100*time.Microsecond))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state shared tap allocated %.2f per packet pair, want 0", allocs)
	}
}

// TestMergeReports pins fleet merging: disjoint per-instance reports
// concatenate, re-sort, and packet-weight the aggregate.
func TestMergeReports(t *testing.T) {
	a := Report{Estimator: "rli",
		Flows:   []FlowEstimate{{Key: key(3), Mean: 300, N: 3}},
		AggMean: 300, AggSamples: 3,
		Routers:  []RouterReport{{Router: "tor3.0", Flows: 1, Estimates: 3}},
		Overhead: Overhead{InjectedPkts: 10, InjectedBytes: 640},
	}
	b := Report{Estimator: "rli",
		Flows:   []FlowEstimate{{Key: key(1), Mean: 100, N: 1}},
		AggMean: 100, AggSamples: 1,
		Routers:  []RouterReport{{Router: "tor3.1", Flows: 1, Estimates: 1}},
		Overhead: Overhead{InjectedPkts: 5, InjectedBytes: 320},
	}
	m := MergeReports("rli", a, b)
	if len(m.Flows) != 2 || m.Flows[0].Key.Compare(m.Flows[1].Key) >= 0 {
		t.Fatalf("merged flows not sorted: %+v", m.Flows)
	}
	if m.AggSamples != 4 || m.AggMean != 250 {
		t.Fatalf("merged aggregate %v over %d, want 250 over 4", m.AggMean, m.AggSamples)
	}
	if m.Overhead.InjectedPkts != 15 || m.Overhead.InjectedBytes != 960 {
		t.Fatalf("merged overhead %+v", m.Overhead)
	}
	if len(m.Routers) != 2 {
		t.Fatalf("merged routers %+v", m.Routers)
	}
}
