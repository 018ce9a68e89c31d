package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// quickSpec is a fat-tree spec small enough for property tests.
func quickSpec() Spec {
	s := DefaultSpec()
	s.Topology.LinkBps = 200e6
	s.Topology.QueueBytes = 96 << 10
	s.Duration = 60 * time.Millisecond
	return s
}

// TestRunDeterministic pins the engine's determinism contract: the same
// spec and seed produce identical results.
func TestRunDeterministic(t *testing.T) {
	s := quickSpec()
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected != b.Injected || a.Overall != b.Overall || a.Misattribution != b.Misattribution ||
		a.EstP99 != b.EstP99 || a.Samples != b.Samples {
		t.Fatalf("two runs of one spec differ:\n%s\n%s", a.Render(), b.Render())
	}
	if len(a.Routers) != len(b.Routers) || len(a.Segments) != len(b.Segments) || len(a.Fleet) != len(b.Fleet) {
		t.Fatalf("result shapes differ: routers %d/%d segments %d/%d fleet %d/%d",
			len(a.Routers), len(b.Routers), len(a.Segments), len(b.Segments), len(a.Fleet), len(b.Fleet))
	}
	for i := range a.Routers {
		if a.Routers[i] != b.Routers[i] {
			t.Fatalf("router %d differs: %+v vs %+v", i, a.Routers[i], b.Routers[i])
		}
	}
}

// TestRunSeedVariation sanity-checks that different seeds give different
// workloads (otherwise multi-seed CIs are fiction).
func TestRunSeedVariation(t *testing.T) {
	s := quickSpec()
	a, err := RunSeed(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected == b.Injected && a.Overall.MedianRelErr == b.Overall.MedianRelErr {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}

// TestHopDelayFaultRaisesSegment pins the second fault kind end to end: a
// +400µs processing delay at the destination pod's aggregation switch 1
// lies inside the downstream measured segment of every flow arriving via
// core group 1, so exactly the core1.* segments must show the shift — and
// the estimator must track it (references cross the same delayed hop).
func TestHopDelayFaultRaisesSegment(t *testing.T) {
	s := quickSpec()
	s.Duration = 100 * time.Millisecond
	s.Faults = []FaultSpec{{
		Kind:   FaultHopDelay,
		AggPod: 3, AggIdx: 1,
		Extra: 400 * time.Microsecond,
		Start: 0,
		End:   100 * time.Millisecond,
	}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, slowName := range []string{"core1.0->tor3.0", "core1.1->tor3.0"} {
		slow, ok := res.Segment(slowName)
		if !ok {
			t.Fatalf("no flows through delayed segment %s", slowName)
		}
		for _, healthyName := range []string{"core0.0->tor3.0", "core0.1->tor3.0"} {
			seg, ok := res.Segment(healthyName)
			if !ok {
				t.Fatalf("no flows through healthy segment %s", healthyName)
			}
			if slow.Summary.TrueMeanDelay < seg.Summary.TrueMeanDelay+300*time.Microsecond {
				t.Fatalf("delayed segment %s true mean %v not ~400µs above healthy %s (%v)",
					slowName, slow.Summary.TrueMeanDelay, healthyName, seg.Summary.TrueMeanDelay)
			}
			if slow.EstMean < seg.EstMean+200*time.Microsecond {
				t.Fatalf("estimates did not track the injected delay: %v vs %v", slow.EstMean, seg.EstMean)
			}
		}
	}
}

// TestFaultWindowRestores pins fault scheduling: a fault confined to the
// first half of the run must leave a smaller latency footprint than the
// same fault active for the whole run.
func TestFaultWindowRestores(t *testing.T) {
	base := quickSpec()
	base.Duration = 100 * time.Millisecond
	whole := base
	whole.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0,
		Extra: 400 * time.Microsecond, Start: 0, End: 100 * time.Millisecond}}
	half := base
	half.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0,
		Extra: 400 * time.Microsecond, Start: 0, End: 50 * time.Millisecond}}
	rw, err := Run(whole)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	sw, ok1 := rw.Segment("core0.0->tor3.0")
	sh, ok2 := rh.Segment("core0.0->tor3.0")
	if !ok1 || !ok2 {
		t.Fatal("no flows through the delayed core")
	}
	if sh.Summary.TrueMeanDelay >= sw.Summary.TrueMeanDelay {
		t.Fatalf("half-run fault (%v) should hurt less than whole-run fault (%v)", sh.Summary.TrueMeanDelay, sw.Summary.TrueMeanDelay)
	}
}

// tandemSweepSpec is the registered baseline-tandem scenario shortened for
// multi-seed tests, RLI only.
func tandemSweepSpec(t *testing.T) Spec {
	t.Helper()
	sc, ok := Get("baseline-tandem")
	if !ok {
		t.Fatal("baseline-tandem not registered")
	}
	s := sc.Spec
	s.Duration = 120 * time.Millisecond
	s.Deploy.Estimators = []string{"rli"}
	return s
}

// TestRunMultiWorkerInvariance pins the sweep determinism contract on real
// runs of both topologies: sweeping with 1 worker and with several yields
// identical per-seed results, across-seed metrics and merged collector
// snapshot — the runner + collector plane end to end.
func TestRunMultiWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep; skipped in -short")
	}
	fattree := quickSpec()
	fattree.Duration = 40 * time.Millisecond
	for name, s := range map[string]Spec{"fattree": fattree, "tandem": tandemSweepSpec(t)} {
		t.Run(name, func(t *testing.T) {
			seq, err := RunMulti(s, MultiOpts{Seeds: 4, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunMulti(s, MultiOpts{Seeds: 4, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq.PerSeed {
				if !sameResult(seq.PerSeed[i], par.PerSeed[i]) {
					t.Fatalf("seed %d differs across worker counts", i)
				}
			}
			if !reflect.DeepEqual(seq.Fleet, par.Fleet) {
				t.Fatal("merged collector aggregates differ across worker counts")
			}
			if seq.MedianRelErr != par.MedianRelErr || seq.P90RelErr != par.P90RelErr || seq.HotLinkUtil != par.HotLinkUtil {
				t.Fatalf("worker count changed sweep output:\n%s\n%s", seq.Render(), par.Render())
			}
			if seq.MedianRelErr.N != 4 {
				t.Fatalf("metric N = %d, want 4", seq.MedianRelErr.N)
			}
		})
	}
}

// TestRunMultiStatistics sanity-checks the aggregation itself, on a tandem
// sweep.
func TestRunMultiStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep; skipped in -short")
	}
	r, err := RunMulti(tandemSweepSpec(t), MultiOpts{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Seeds) != 3 || len(r.PerSeed) != 3 {
		t.Fatalf("got %d seeds, %d results", len(r.Seeds), len(r.PerSeed))
	}
	if r.Seeds[0] == r.Seeds[1] || r.Seeds[1] == r.Seeds[2] {
		t.Fatalf("derived seeds not distinct: %v", r.Seeds)
	}
	if r.MedianRelErr.N != 3 || r.MedianRelErr.CI95 < 0 {
		t.Fatalf("bad MedianRelErr stats: %+v", r.MedianRelErr)
	}
	if r.MedianRelErr.Min > r.MedianRelErr.Mean || r.MedianRelErr.Mean > r.MedianRelErr.Max {
		t.Fatalf("mean outside [min,max]: %+v", r.MedianRelErr)
	}
	// Cross-check the mean against the per-seed results, and the merged plane
	// against their estimate counts: it must hold every run's estimates.
	var sum float64
	var perSeed, merged int64
	for _, res := range r.PerSeed {
		sum += res.Overall.MedianRelErr
		perSeed += res.Overall.Estimates
	}
	if want := sum / 3; math.Abs(r.MedianRelErr.Mean-want) > 1e-12 {
		t.Fatalf("MedianRelErr.Mean = %v, want %v", r.MedianRelErr.Mean, want)
	}
	for _, a := range r.Fleet {
		merged += a.Est.N()
	}
	if merged != perSeed || perSeed == 0 {
		t.Fatalf("merged collector holds %d estimates, per-seed results total %d", merged, perSeed)
	}
}

// TestSourcePodHopDelayRaisesCoreEstMean pins RouterStats.EstMean, the
// ToR-uplink->core half of what the localization experiment reads: with every
// flow sourced under one ToR, a slow aggregation switch in that pod raises the
// mean at exactly its own core group's receivers.
func TestSourcePodHopDelayRaisesCoreEstMean(t *testing.T) {
	healthy := quickSpec()
	healthy.Duration = 100 * time.Millisecond
	healthy.Workload.Pattern, healthy.Workload.HotspotSkew = PatternHotspot, 1 // all flows from tor0.0
	faulty := healthy
	faulty.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 0, AggIdx: 1,
		Extra: 400 * time.Microsecond, Start: 0, End: healthy.Duration}}
	h, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		router string
		slow   bool
	}{{"core0.0", false}, {"core0.1", false}, {"core1.0", true}, {"core1.1", true}} {
		hr, ok1 := h.Router(c.router)
		fr, ok2 := f.Router(c.router)
		if !ok1 || !ok2 || hr.Summary.Estimates == 0 || hr.EstMean <= 0 {
			t.Fatalf("%s: no upstream estimates (%+v)", c.router, hr)
		}
		if rise := fr.EstMean - hr.EstMean; c.slow != (rise > 300*time.Microsecond) || (!c.slow && rise != 0) {
			t.Errorf("%s: mean %v -> %v under a 400µs fault in group 1", c.router, hr.EstMean, fr.EstMean)
		}
	}
}

// TestRunRejectsInvalidSpec pins that Run validates before building.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s := quickSpec()
	s.Topology.K = 3
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
	if _, err := RunMulti(s, MultiOpts{Seeds: 2}); err == nil {
		t.Fatal("RunMulti accepted an invalid spec")
	}
}

// aggExtraDelay probes one aggregation switch of spec's fat-tree: a packet
// with the given ID is injected at the switch at instant at, into an
// otherwise idle network, and the extra delay the switch added is its tx
// start minus the arrival and the processing delay.
func aggExtraDelay(t *testing.T, spec Spec, pod, idx int, at time.Duration, id uint64) time.Duration {
	t.Helper()
	r, err := buildFatTree(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := r.ft.Aggs[pod][idx]
	var tx simtime.Time
	for _, pt := range agg.Ports() {
		pt.OnTxStart(func(_ *packet.Packet, now simtime.Time) { tx = now })
	}
	r.nw.Inject(agg, &packet.Packet{
		ID:   id,
		Size: 100,
		Kind: packet.Regular,
		Key:  packet.FlowKey{Src: r.ft.HostAddr(0, 0, 0), Dst: r.ft.HostAddr(pod, 0, 0)},
	}, simtime.FromDuration(at))
	r.nw.Engine().Run()
	if agg.Received() != 1 {
		t.Fatalf("probe %d did not reach %s", id, agg.Name())
	}
	return tx.Sub(simtime.FromDuration(at)) - agg.ProcDelay()
}

// TestHopDelayWindowBoundaries pins the hop-delay fault's window on the
// packet's arrival instant at the switch: an arrival at Start is delayed,
// one at End is not.
func TestHopDelayWindowBoundaries(t *testing.T) {
	s := quickSpec()
	const start, end, extra = 20 * time.Microsecond, 40 * time.Microsecond, 3 * time.Microsecond
	s.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0, Start: start, End: end, Extra: extra}}
	for _, c := range []struct{ at, want time.Duration }{
		{start - 1, 0}, {start, extra}, {end - 1, extra}, {end, 0},
	} {
		if got := aggExtraDelay(t, s, 3, 0, c.at, 1); got != c.want {
			t.Errorf("arrival at %v: extra delay %v, want %v", c.at, got, c.want)
		}
	}
}

// TestHopDelayComposesWithAdversary puts a hop-delay fault and the
// compromised switch on one aggregation switch: where the windows overlap a
// packet pays both delays, and the adversary still spares the periodic
// sampler's predicted subset.
func TestHopDelayComposesWithAdversary(t *testing.T) {
	s := quickSpec()
	const faultExtra, advExtra = 3 * time.Microsecond, 5 * time.Microsecond
	s.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 1,
		Start: 20 * time.Microsecond, End: 40 * time.Microsecond, Extra: faultExtra}}
	s.Adversary = &AdversarySpec{AggPod: 3, AggIdx: 1,
		Start: 30 * time.Microsecond, End: 50 * time.Microsecond, Extra: advExtra}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// One packet ID the adversary predicts the periodic sampler takes, and
	// one it does not.
	spared, hit := uint64(0), uint64(0)
	for id := uint64(1); spared == 0 || hit == 0; id++ {
		if measure.PredictPeriodic(id, 0) {
			spared = id
		} else {
			hit = id
		}
	}
	for _, c := range []struct {
		at   time.Duration
		id   uint64
		want time.Duration
	}{
		{25 * time.Microsecond, hit, faultExtra},
		{30 * time.Microsecond, hit, faultExtra + advExtra},
		{30 * time.Microsecond, spared, faultExtra},
		{40*time.Microsecond - 1, hit, faultExtra + advExtra},
		{40 * time.Microsecond, hit, advExtra},
		{40 * time.Microsecond, spared, 0},
		{50 * time.Microsecond, hit, 0},
	} {
		if got := aggExtraDelay(t, s, 3, 1, c.at, c.id); got != c.want {
			t.Errorf("packet %d arriving at %v: extra delay %v, want %v", c.id, c.at, got, c.want)
		}
	}
}
