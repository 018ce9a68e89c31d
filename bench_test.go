// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the repository's ablations. Each benchmark runs the corresponding
// experiment at a small scale and reports the paper's headline metric
// through b.ReportMetric, so `go test -bench=. -benchmem` reproduces the
// evaluation end to end:
//
//	BenchmarkFig4a  — Figure 4(a): mean-estimate accuracy CDFs
//	BenchmarkFig4b  — Figure 4(b): stddev-estimate accuracy CDFs
//	BenchmarkFig4c  — Figure 4(c): bursty vs random cross traffic
//	BenchmarkFig5   — Figure 5: reference-packet interference
//	BenchmarkTablePlacement — §3.1 deployment complexity table
//	BenchmarkScalars        — §4.2 quoted scalars
//	BenchmarkAblation*      — DESIGN.md A1/A2/A3, B1
//
// Each result's table is printed once per benchmark (use cmd/experiments
// for the full-scale versions and the figures' CDF curves).
package rlir_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// printOnce guards the one-time rendering of each figure.
var printOnce sync.Map

func renderOnce(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

// metricUnit turns a series label into a ReportMetric-safe unit (no
// whitespace).
func metricUnit(prefix, label string) string {
	return prefix + "/" + strings.ReplaceAll(strings.ReplaceAll(label, " ", ""), ",", "_")
}

func BenchmarkFig4a(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4a(smallTandem(b))
	}
	renderOnce("4a", fig.Table().Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.Median(), metricUnit("medianRelErr", s.Label))
		}
	}
}

func BenchmarkFig4b(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4b(smallTandem(b))
	}
	renderOnce("4b", fig.Table().Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.FracBelow(0.10), metricUnit("under10pct", s.Label))
		}
	}
}

func BenchmarkFig4c(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4c(smallTandem(b))
	}
	renderOnce("4c", fig.Table().Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.Median(), metricUnit("medianRelErr", s.Label))
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	// Interference is a ~1% systematic effect on top of chaotic queue
	// noise; a longer trace with a tight queue gives enough drop events
	// for the signal to dominate (same configuration the shape test uses).
	base := smallTandem(b)
	base.Duration = time.Second
	base.Topology.QueueBytes = 32 << 10
	var res rlir.Fig5Result
	for i := 0; i < b.N; i++ {
		res = rlir.Fig5(base, []float64{0.9, 0.98})
	}
	renderOnce("5", res.Table().Render())
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.AdaptiveDiff, "adaptiveLossDiff@98")
	b.ReportMetric(last.StaticDiff, "staticLossDiff@98")
}

func BenchmarkTablePlacement(b *testing.B) {
	target, err := rlir.ParseExperimentTarget("placement")
	if err != nil {
		b.Fatal(err)
	}
	var rows []stats.TableRow
	for i := 0; i < b.N; i++ {
		res := target.Run(smallTandem(b))
		rows = res.Table().Rows
		renderOnce("placement", res.Table().Render())
	}
	b.ReportMetric(rows[0].Cells[0], "instances/k4-pair")
	b.ReportMetric(rows[len(rows)-1].Cells[4], "savings/k48")
}

func BenchmarkScalars(b *testing.B) {
	var s rlir.Scalars
	for i := 0; i < b.N; i++ {
		s = rlir.RunScalars(smallTandem(b))
	}
	renderOnce("scalars", s.Table().Render())
	b.ReportMetric(s.BaseUtil, "baseUtil")
	b.ReportMetric(float64(s.AdaptiveGap), "adaptiveGap")
	b.ReportMetric(s.Median93Static, "medianRelErr@93static")
}

func BenchmarkAblationDemux(b *testing.B) {
	spec := rlir.DefaultFatTreeSpec()
	spec.Duration = smallTandem(b).Duration / 2
	var results rlir.DemuxAblation
	for i := 0; i < b.N; i++ {
		var err error
		if results, err = rlir.AblationDemux(spec); err != nil {
			b.Fatal(err)
		}
	}
	renderOnce("A1", results.Table().Render())
	for _, r := range results {
		b.ReportMetric(r.Misattribution, "misattrib/"+r.Spec.Deploy.Demux)
	}
}

func BenchmarkAblationEstimators(b *testing.B) {
	var rows rlir.EstimatorAblation
	for i := 0; i < b.N; i++ {
		rows = rlir.AblationEstimators(smallTandem(b), 0.8)
	}
	renderOnce("A2", rows.Table().Render())
	for _, r := range rows {
		b.ReportMetric(r.MedianRelErr, "medianRelErr/"+r.Estimator.String())
	}
}

func BenchmarkAblationClocks(b *testing.B) {
	var rows rlir.ClockAblation
	for i := 0; i < b.N; i++ {
		rows = rlir.AblationClocks(smallTandem(b), 0.8)
	}
	renderOnce("A3", rows.Table().Render())
	b.ReportMetric(rows[0].MedianRelErr, "medianRelErr/perfect")
	b.ReportMetric(rows[3].MedianRelErr, "medianRelErr/offset100us")
}

func BenchmarkBaselines(b *testing.B) {
	var r rlir.BaselineResult
	for i := 0; i < b.N; i++ {
		r = rlir.RunBaselines(smallTandem(b), 0.93)
	}
	renderOnce("B1", r.Table().Render())
	b.ReportMetric(r.RLIRMedian, "medianRelErr/rlir")
	b.ReportMetric(r.MultiflowMedian, "medianRelErr/multiflow")
	b.ReportMetric(r.LDAMeanErr, "aggErr/lda")
}

func BenchmarkLocalization(b *testing.B) {
	cfg := rlir.DefaultLocalizationConfig()
	cfg.Spec.Duration = smallTandem(b).Duration / 2
	var res rlir.LocalizationResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = rlir.RunLocalization(cfg); err != nil {
			b.Fatal(err)
		}
	}
	renderOnce("L1", res.Table().Render())
	ok := 0.0
	if res.Localized() {
		ok = 1
	}
	b.ReportMetric(ok, "localized")
}

// benchmarkRunnerSweep measures the multi-seed runner: an 8-seed sweep of the
// registered baseline-tandem scenario, RLI only (per-run telemetry merged
// through the collector plane), at the given worker count.
// BenchmarkRunnerSweep1 vs BenchmarkRunnerSweep4 gives the parallel-scaling
// ratio; on a multi-core machine 4 workers should approach 4x, and the ratio
// degrades to ~1x only when the hardware offers a single core.
func benchmarkRunnerSweep(b *testing.B, workers int) {
	sc, ok := rlir.ScenarioByName("baseline-tandem")
	if !ok {
		b.Fatal("baseline-tandem not registered")
	}
	spec := sc.Spec
	spec.Deploy.Estimators = []string{"rli"}
	spec.Duration = smallTandem(b).Duration
	var r *scenario.MultiResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = rlir.RunScenarioMulti(spec, rlir.MultiOpts{Seeds: 8, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Fleet)), "mergedFlows")
	b.ReportMetric(r.MedianRelErr.Mean, "medianRelErr")
	b.ReportMetric(r.MedianRelErr.CI95, "medianRelErrCI95")
}

func BenchmarkRunnerSweep1(b *testing.B) { benchmarkRunnerSweep(b, 1) }
func BenchmarkRunnerSweep4(b *testing.B) { benchmarkRunnerSweep(b, 4) }

// BenchmarkScenarioFatTree pushes the default fat-tree scenario (converging
// workload, K=4, 60 ms) end to end through the scenario engine.
func BenchmarkScenarioFatTree(b *testing.B) {
	spec := scenario.DefaultSpec()
	spec.Duration = 60 * time.Millisecond
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	var injected uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		injected += uint64(r.Injected)
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: packets pushed
// through the instrumented tandem per second of wall clock — the
// engineering metric that bounds how large a trace the harness can replay.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := smallTandem(b)
	var packets uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := rlir.RunScenario(spec)
		if err != nil {
			b.Fatal(err)
		}
		packets += uint64(r.Injected) + r.CrossAdmitted
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
}
