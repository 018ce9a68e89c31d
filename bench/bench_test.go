package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/scenario"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(vals), 5.5/5.5; got != want {
		t.Fatalf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([3, 5, 8], n=4) == [3.0, 5.0, 8.0]
	if q1, q3 := quartiles([]float64{5, 8, 3}); q1 != 3 || q3 != 8 {
		t.Fatalf("quartiles of three = %g, %g; want 3, 8", q1, q3)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},      // nested child
		{Name: "a.leaf", Start: 15, End: 25, Parent: 1}, // grandchild: only a's self time shrinks
		{Name: "b", Start: 30, End: 60, Parent: 0},      // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0},     // overruns the parent by 20
	}
	self := selfTimes(spans)
	// root: 100 - union([10,40],[30,60],[90,100]) = 100 - (50 + 10) = 40
	want := []int64{40, 20, 10, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := selfByName(spans)["a"]; got != 20 {
		t.Errorf("selfByName[a] = %d, want 20", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1)
	r.end(id)
	r.pause(true)
	if id != -1 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
}

// TestPacerTimesFromTheDueInstant drives the pacer with a clock whose
// sleeps overshoot: due instants must stay on the fixed schedule, a late
// release must be reported as lateness, and a generator that has fallen
// behind must not sleep at all.
func TestPacerTimesFromTheDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	var slept []time.Duration
	p := newPacer(start, 10*time.Millisecond)
	p.now = func() time.Time { return now }
	p.sleep = func(d time.Duration) {
		slept = append(slept, d)
		now = now.Add(d + 3*time.Millisecond) // every sleep overshoots by 3 ms
	}

	due, late := p.next() // due at start: no wait, on time
	if !due.Equal(start) || late != 0 || len(slept) != 0 {
		t.Fatalf("first op: due %v late %v slept %v", due.Sub(start), late, slept)
	}
	due, late = p.next() // due at +10ms, released at +13ms
	if due.Sub(start) != 10*time.Millisecond || late != 3*time.Millisecond {
		t.Fatalf("second op: due +%v late %v", due.Sub(start), late)
	}
	now = start.Add(45 * time.Millisecond) // a stall: ops 2, 3 and 4 are overdue
	slept = nil
	for k, wantLate := range []time.Duration{25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond} {
		due, late = p.next()
		if due.Sub(start) != time.Duration(k+2)*10*time.Millisecond || late != wantLate {
			t.Fatalf("overdue op %d: due +%v late %v, want late %v", k+2, due.Sub(start), late, wantLate)
		}
	}
	if len(slept) != 0 {
		t.Fatalf("a generator that is behind slept %v", slept)
	}
	due, _ = p.next() // back on schedule: +50ms, waits 5ms
	if due.Sub(start) != 50*time.Millisecond || len(slept) != 1 || slept[0] != 5*time.Millisecond {
		t.Fatalf("after the stall: due +%v slept %v", due.Sub(start), slept)
	}
}

// TestSlownessIsTheMedianOfTheNearestPoints pins the host-speed correction:
// a repetition is corrected by the median of the calibNear calibration
// points nearest its interval, a time is divided by it and a rate
// multiplied, and a run without calibration points is left as measured.
func TestSlownessIsTheMedianOfTheNearestPoints(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	c := &calibrator{}
	// Twenty points one second apart: a fast host (1.0) for ten seconds,
	// then a slow one (2.0), with one spike that a median must ignore.
	for i := 0; i < 20; i++ {
		slow := 1.0
		if i >= 10 {
			slow = 2.0
		}
		if i == 3 {
			slow = 9.0
		}
		c.pts = append(c.pts, calibPoint{at: at(float64(i)), slow: slow})
	}
	for _, tc := range []struct {
		t0, d, want float64
	}{
		{3.1, 0.1, 1.0},   // the spike at 3 s is one of seven neighbours
		{15.2, 0.5, 2.0},  // well inside the slow spell
		{-5, 1, 1.0},      // before the first point: the first seven
		{100, 1, 2.0},     // after the last point: the last seven
		{7.5, 4.0, 1.0},   // a long interval holds points 8..11; the nearest outside fill up to 6..12: 1,1,1,1,2,2,2
		{11.9, 0.2, 2.0},  // points 9..15: 1,2,2,2,2,2,2
		{8.05, 0.01, 1.0}, // points 5..11: 1,1,1,1,1,2,2
	} {
		got := c.slowness(at(tc.t0), time.Duration(tc.d*float64(time.Second)))
		if got != tc.want {
			t.Errorf("slowness(%gs, %gs) = %g, want %g", tc.t0, tc.d, got, tc.want)
		}
	}

	var s series
	s.add(at(15), time.Second, 100)
	if got := s.atNominal(c, false)[0]; got != 50 {
		t.Errorf("a 100 ms latency on a host at slowness 2 = %g at nominal speed, want 50", got)
	}
	if got := s.atNominal(c, true)[0]; got != 200 {
		t.Errorf("a rate of 100/s on a host at slowness 2 = %g at nominal speed, want 200", got)
	}
	if got := s.atNominal(&calibrator{}, true)[0]; got != 100 {
		t.Errorf("without calibration points the value changed to %g", got)
	}
}

// TestCalibrationPointIsNearOneOnThisHost runs the kernels for real: a
// point must be a finite positive ratio, and tick must honour calibGap.
func TestCalibrationPointIsNearOneOnThisHost(t *testing.T) {
	c := newCalibrator()
	c.tick()
	c.tick() // younger than calibGap: no second point
	if len(c.pts) != 1 {
		t.Fatalf("two ticks in a row took %d points, want 1", len(c.pts))
	}
	if s := c.pts[0].slow; !(s > 0.2 && s < 50) {
		t.Fatalf("slowness %g: the kernels' nominal times are off by more than any host explains", s)
	}
	if c.busy <= 0 {
		t.Fatal("calibration time was not accounted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not well formed", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is not well formed", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
		sh := w.shares
		if sum := sh.sim + sh.par + sh.flows + sh.comparison + sh.ingest + sh.mixed; math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s: shares sum to %g", w.name, sum)
		}
	}
}

func TestResultJSONRoundTrips(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.name] = 1.25 + float64(i)/3
	}
	res, err := newResult(endToEnd, values, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks key %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(keys), line)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 1000 || back.Failed != 0 || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	for _, d := range endToEnd {
		if got := back.Metrics[d.name]; got.Value != values[d.name] || got.Unit != d.unit {
			t.Errorf("%s round-tripped to %+v, want %g %s", d.name, got, values[d.name], d.unit)
		}
	}
	delete(values, "setup_s")
	if _, err := newResult(endToEnd, values, 1, 0); err == nil {
		t.Error("a result with an unmeasured metric was accepted")
	}
}

// TestBenchmarkFileMatchesTheHarness holds BENCHMARK.json and the code
// together: same workloads, same metrics, same units and directions, and
// bounds inside what the contract allows.
func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %g is outside (0, 0.25]", g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s: a per-layer metric carries a bound", g.Name)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

func TestSeedDecidesTheCapture(t *testing.T) {
	w := workloads[0].scaled(1.0 / 50)
	spec, err := w.spec(scenario.EngineSequential)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(seed int64) []byte {
		tr, err := scenario.Export(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Samples) == 0 {
			t.Fatalf("seed %d: empty capture", seed)
		}
		return collector.AppendSamples(nil, tr.Samples)
	}
	a, again, b := wire(1), wire(1), wire(2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced two different captures")
	}
	if bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 produced the same capture")
	}
}

func TestVerdict(t *testing.T) {
	set := func(vals ...float64) cell {
		c := cell{Values: vals}
		c.summarize()
		return c
	}
	steady := set(100, 101, 99, 100, 100.5)
	for _, tc := range []struct {
		name   string
		b      cell
		better string
		want   string
	}{
		{"same", set(100, 100.2, 99.8, 100.1, 100), "lower", verdictUnchanged},
		{"slower latency", set(120, 121, 119, 120, 122), "lower", verdictRegressed},
		{"faster latency", set(90, 91, 89, 90, 90.5), "lower", verdictImproved},
		{"lower throughput", set(80, 81, 79, 80, 80), "higher", verdictRegressed},
		{"higher throughput", set(110, 111, 109, 110, 110), "higher", verdictImproved},
		{"too noisy to say", set(80, 130, 95, 140, 100), "lower", verdictUnresolved},
		{"noisy but every run better", set(50, 70, 55, 75, 60), "lower", verdictImproved},
	} {
		if got := verdict(steady, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end at 1/50 of its
// capture size for a fraction of a second: every metric must be reported
// and every verification must pass. The capped swp workload and an uncapped
// raw one are also run traced, which covers every probe.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		small := w.scaled(1.0 / 50)
		res, err := runWorkload(small, 1, 0.4, "", io.Discard, io.Discard)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
			t.Fatalf("%s untraced: %+v", w.name, res)
		}
		for name, mv := range res.Metrics {
			if mv.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, mv.Value)
			}
		}
		res, err = runWorkload(small, 1, 0.4, t.TempDir(), io.Discard, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer) {
			t.Fatalf("%s traced: %+v", w.name, res)
		}
	}
	// About 7 s on two cores; not asserted, because -race multiplies it.
	t.Logf("smoke took %v", time.Since(start))
}
