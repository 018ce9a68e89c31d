package measure

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/lda"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
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
// identical receiver state as calling Observe directly, its Results are a
// per-flow fold of the bare receiver's estimate stream, and the caller's own
// OnEstimate still sees every estimate.
func TestRLITapMatchesReceiverObserve(t *testing.T) {
	type acc struct{ est, truth stats.Welford }
	folded := map[packet.FlowKey]*acc{}
	var chained uint64
	mk := func() (*RLI, *core.Receiver) {
		cfg := core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}}
		est, err := NewRLI(core.ReceiverConfig{
			Demux:      cfg.Demux,
			OnEstimate: func(packet.FlowKey, time.Duration, time.Duration) { chained++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.OnEstimate = func(key packet.FlowKey, est, truth time.Duration) {
			a, ok := folded[key]
			if !ok {
				a = &acc{}
				folded[key] = a
			}
			a.est.Add(float64(est))
			a.truth.Add(float64(truth))
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
	var b []core.FlowResult
	for key, f := range folded {
		b = append(b, core.FlowResultOf(key, &f.est, &f.truth))
	}
	slices.SortFunc(b, func(x, y core.FlowResult) int { return x.Key.Compare(y.Key) })
	a := est.Results()
	if len(a) != 3 || len(a) != len(b) {
		t.Fatalf("result lengths: %d from RLI, %d folded, want 3", len(a), len(b))
	}
	if chained != rx.Counters().Estimated {
		t.Fatalf("the caller's OnEstimate saw %d of %d estimates", chained, rx.Counters().Estimated)
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
	rli, err := NewRLI(core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}})
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

// TestReportWithFlows pins the one per-flow aggregate rule: the flows'
// N-weighted mean over their summed N, replacing whatever aggregate the
// report carried, and zero when no flow is left.
func TestReportWithFlows(t *testing.T) {
	r := Report{Estimator: "rli", AggMean: 7, AggSamples: 9, Overhead: Overhead{InjectedPkts: 10}}
	m := r.WithFlows([]FlowEstimate{{Key: key(1), Mean: 100, N: 1}, {Key: key(3), Mean: 300, N: 3}})
	if len(m.Flows) != 2 || m.AggSamples != 4 || m.AggMean != 250 {
		t.Fatalf("aggregate %v over %d of %d flows, want 250 over 4 of 2", m.AggMean, m.AggSamples, len(m.Flows))
	}
	if m.Estimator != "rli" || m.Overhead.InjectedPkts != 10 {
		t.Fatalf("WithFlows moved a field it does not derive: %+v", m)
	}
	if e := r.WithFlows(nil); e.AggMean != 0 || e.AggSamples != 0 {
		t.Fatalf("no flows: aggregate %v over %d, want 0 over 0", e.AggMean, e.AggSamples)
	}
}
