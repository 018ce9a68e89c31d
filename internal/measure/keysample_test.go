package measure

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

func TestShouldSampleRateOneTakesAll(t *testing.T) {
	for _, rate := range []uint64{0, 1} {
		for id := uint64(0); id < 1000; id++ {
			if !ShouldSample(0xdeadbeef, id, rate) {
				t.Fatalf("rate %d skipped id %d; rate <= 1 must sample everything", rate, id)
			}
		}
	}
}

// TestShouldSampleUniformChiSquared draws the keyed sample set over two
// million consecutive packet IDs and chi-squared-tests the sampled counts
// across 64 equal ID buckets: membership must be uniform over the ID space,
// not clustered (a clustered set would let an adversary delay whole ID
// ranges safely, and would bias pair-matching toward bursts). The 99.9%
// critical value at 63 degrees of freedom is 103.4; everything here is a
// pure function of the fixed keys, so the test is deterministic.
func TestShouldSampleUniformChiSquared(t *testing.T) {
	const (
		n       = 1 << 21 // ~2.1M draws
		rate    = 32
		buckets = 64
		shift   = 15 // id >> shift maps [0, n) onto [0, buckets)
	)
	for _, key := range []uint64{1, 0x9e3779b97f4a7c15, 0x5ec2e74b3a9d01} {
		var counts [buckets]int
		total := 0
		for id := uint64(0); id < n; id++ {
			if ShouldSample(key, id, rate) {
				counts[id>>shift]++
				total++
			}
		}
		want := float64(n) / rate
		if frac := float64(total) / want; frac < 0.95 || frac > 1.05 {
			t.Fatalf("key %#x: sampled %d of %d ids, want ~%.0f (1-in-%d)", key, total, n, want, rate)
		}
		exp := want / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > 110 {
			t.Fatalf("key %#x: chi-squared %.1f over %d buckets (99.9%% critical 103.4); sample set is not uniform", key, chi2, buckets)
		}
	}
}

// TestShouldSampleUnpredictableWithoutKey plays the delay-gaming router: a
// header-only observer guessing the keyed sample set with every predictor it
// can compute without the key. Each predictor's overlap with the true set
// must sit at the chance level (independence), within a ±30% tolerance that
// is loose against the binomial noise of a million-draw experiment yet tight
// enough that any real predictive power would trip it. The draw is a pure
// function of the fixed key, so the result is pinned, not flaky.
func TestShouldSampleUnpredictableWithoutKey(t *testing.T) {
	const (
		n    = 1 << 20 // ~1M draws
		rate = 32
		key  = 0x243f6a8885a308d3 // fixed secret the predictors don't see
	)
	predictors := []struct {
		name string
		f    func(id uint64) bool
	}{
		{"periodic", func(id uint64) bool { return id%rate == 0 }},
		{"low-bit", func(id uint64) bool { return id%2 == 0 }},
		{"high-byte", func(id uint64) bool { return (id>>12)%rate == 0 }},
		{"unkeyed-hash", func(id uint64) bool { return trace.SplitMix64(id)%rate == 0 }},
	}
	sampled := make([]bool, n)
	total := 0
	for id := uint64(0); id < n; id++ {
		if ShouldSample(key, id, rate) {
			sampled[id] = true
			total++
		}
	}
	for _, p := range predictors {
		predicted, overlap := 0, 0
		for id := uint64(0); id < n; id++ {
			if !p.f(id) {
				continue
			}
			predicted++
			if sampled[id] {
				overlap++
			}
		}
		// Chance level: independent sets of these sizes overlap in
		// predicted*total/n elements.
		chance := float64(predicted) * float64(total) / float64(n)
		if f := float64(overlap); f < 0.7*chance || f > 1.3*chance {
			t.Fatalf("%s predictor overlaps the keyed sample set in %d of %d predictions (chance %.0f ±30%%): the set is predictable without the key",
				p.name, overlap, predicted, chance)
		}
	}
}

// TestPredictPeriodicIsExact pins the adversary's oracle for the periodic
// baseline: PredictPeriodic and PeriodicSampled use the same rule, so the
// header-only prediction is right on every packet — which is exactly why
// the periodic baseline is gameable.
func TestPredictPeriodicIsExact(t *testing.T) {
	s := NewPeriodicSampled(7)
	for id := uint64(0); id < 10_000; id++ {
		want := periodicSampled(id, 7)
		if PredictPeriodic(id, 7) != want {
			t.Fatalf("PredictPeriodic(%d, 7) disagrees with the sampler", id)
		}
	}
	if PredictPeriodic(0, 0) != periodicSampled(0, DefaultSampleRate) {
		t.Fatal("PredictPeriodic rate 0 must fall back to DefaultSampleRate")
	}
	_ = s
}

// TestPairSamplersEstimateFlows runs both pair-matching samplers over a
// two-point tap sequence with a known constant delay and checks they report
// it for every flow they sampled.
func TestPairSamplersEstimateFlows(t *testing.T) {
	const delay = 150 * time.Microsecond
	for _, tc := range []struct {
		name string
		tap  interface {
			TapStart(*packet.Packet, simtime.Time)
			Tap(*packet.Packet, simtime.Time)
		}
	}{
		{"hash-sample", NewHashSampled(4, 12345)},
		{"periodic-sample", NewPeriodicSampled(4)},
	} {
		// 7 flows against a 1-in-4 rate: coprime, so even the periodic
		// sampler's id-residue subset covers every flow.
		at := simtime.Time(0)
		for i := 0; i < 4000; i++ {
			p := packet.Packet{ID: uint64(i), Key: key(i % 7), Size: 1000, Kind: packet.Regular}
			at = at.Add(time.Microsecond)
			tc.tap.TapStart(&p, at)
			tc.tap.Tap(&p, at.Add(delay))
		}
		rep := tc.tap.(Estimator).Finalize()
		if rep.Estimator != tc.name {
			t.Fatalf("report names %q, want %q", rep.Estimator, tc.name)
		}
		if len(rep.Flows) != 7 {
			t.Fatalf("%s estimated %d flows, want 7", tc.name, len(rep.Flows))
		}
		for _, f := range rep.Flows {
			if f.Mean != delay {
				t.Fatalf("%s flow %v mean %v, want %v", tc.name, f.Key, f.Mean, delay)
			}
		}
		if rep.AggMean != delay || rep.AggSamples == 0 {
			t.Fatalf("%s aggregate %v over %d samples, want %v", tc.name, rep.AggMean, rep.AggSamples, delay)
		}
		if rep.Overhead.SampledRecords == 0 || rep.Overhead.SampledBytes == 0 {
			t.Fatalf("%s accounted no export overhead", tc.name)
		}
	}
}

// BenchmarkHashSampleTap measures the secret-key sampler's per-packet tap
// cost in steady state: two keyed hash evaluations on the fast path and the
// pair-matching bookkeeping on the 1-in-32 sampled path. That it allocates
// nothing per packet is a test, TestZeroAllocDispatchSteadyState.
func BenchmarkHashSampleTap(b *testing.B) {
	h := NewHashSampled(32, 0x243f6a8885a308d3)
	const nFlows = 256
	pkts := make([]packet.Packet, nFlows)
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i + 1), Key: key(i), Size: 1000, Kind: packet.Regular}
	}
	// Warm-up: establish per-flow Welford state for every sampled flow.
	at := simtime.Time(0)
	for r := 0; r < 4; r++ {
		for i := range pkts {
			at = at.Add(time.Microsecond)
			h.TapStart(&pkts[i], at)
			h.Tap(&pkts[i], at.Add(100*time.Microsecond))
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for n := 0; n < b.N; n++ {
		p := &pkts[n%nFlows]
		at = at.Add(time.Microsecond)
		h.TapStart(p, at)
		h.Tap(p, at.Add(100*time.Microsecond))
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "pkts/s")
	}
}

// TestPairCoreFinalizeOrderIndependent fills one pairCore with the same
// per-flow observations in several insertion orders and requires identical
// reports. The delays are integers whose exact aggregate mean is itself an
// integer, so a fold that rounds differently — by insertion order, or by
// Go's randomized map iteration — lands on either side of the Duration
// truncation and shows up as a 1 ns AggMean difference.
func TestPairCoreFinalizeOrderIndependent(t *testing.T) {
	const flows, perFlow = 600, 5
	type obs struct {
		key    packet.FlowKey
		delays [perFlow]int64
	}
	rng := rand.New(rand.NewSource(7))
	all := make([]obs, flows)
	var sum int64
	for i := range all {
		all[i].key = packet.FlowKey{Src: packet.Addr(0x0a000000 + i), Dst: 0x0ac80001, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		for j := range all[i].delays {
			all[i].delays[j] = 50_000 + rng.Int63n(900_000)
			sum += all[i].delays[j]
		}
	}
	all[flows-1].delays[perFlow-1] += flows*perFlow - sum%(flows*perFlow) // exact mean is now an integer

	fill := func(order []int) Report {
		c := newPairCore()
		var id uint64
		for _, i := range order {
			for _, d := range all[i].delays {
				id++
				c.start(id, 0)
				c.end(&packet.Packet{ID: id, Key: all[i].key}, simtime.Time(d))
			}
		}
		return c.finalize("pair")
	}
	order := rng.Perm(flows)
	want := fill(order)
	for round := 0; round < 40; round++ {
		rng.Shuffle(flows, func(a, b int) { order[a], order[b] = order[b], order[a] })
		if got := fill(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: AggMean %v vs %v — the aggregate depends on fold order", round, got.AggMean, want.AggMean)
		}
	}
}
