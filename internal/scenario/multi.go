package scenario

import (
	"fmt"
	"math"
	"strings"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/stats"
)

// MultiOpts sizes a multi-seed sweep — a scenario's (RunMulti) or a figure
// harness's.
type MultiOpts struct {
	// Seeds is the number of independent runs (default 8 — enough for a
	// meaningful t-interval without exploding CI time).
	Seeds int
	// Workers caps parallel runs (<= 0 uses GOMAXPROCS).
	Workers int
}

// DeriveSeeds returns the sweep's per-run seeds, SplitMix64-derived from
// base.
func (o MultiOpts) DeriveSeeds(base int64) []int64 {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	return runner.Seeds(base, o.Seeds)
}

// MultiResult aggregates one scenario across independent seeds.
type MultiResult struct {
	Spec    Spec
	Seeds   []int64
	PerSeed []*Result
	// Across-seed distributions of the headline scalars.
	MedianRelErr   stats.MetricCI
	P90RelErr      stats.MetricCI
	Misattribution stats.MetricCI
	HotLinkUtil    stats.MetricCI
	EstP99Us       stats.MetricCI
	// Estimators aggregates the per-seed comparison tables: one row per
	// requested mechanism, each metric as its across-seed distribution.
	Estimators []EstimatorCI
	// Telemetry aggregates the per-seed telemetry-loss reports (specs with
	// Spec.Telemetry only): per mechanism, the across-seed distribution of
	// degraded accuracy and flow coverage.
	Telemetry []TelemetryCI
	// Detection aggregates the per-seed adversarial detection reports
	// (specs with Spec.Adversary only): per mechanism, the across-seed
	// exposure distribution and the fraction of seeds it detected on.
	Detection []DetectionCI
	// Fleet merges every run's collector snapshot in seed order.
	Fleet []collector.FlowAgg
}

// EstimatorCI is one mechanism's across-seed comparison row.
type EstimatorCI struct {
	Name string
	// Flows is the mean number of flows the mechanism estimated per seed.
	Flows stats.MetricCI
	// MedianRelErr / P99RelErr / AggRelErr are the across-seed
	// distributions of the per-seed error metrics; N = 0 ("n/a") for
	// metrics the mechanism does not produce.
	MedianRelErr stats.MetricCI
	P99RelErr    stats.MetricCI
	AggRelErr    stats.MetricCI
	// InjectedBytes / SampledBytes are the across-seed overhead means.
	InjectedBytes stats.MetricCI
	SampledBytes  stats.MetricCI
}

// TelemetryCI is one mechanism's across-seed telemetry-loss row: how its
// accuracy and coverage degrade when export frames are dropped, as mean ±
// 95% CI over the sweep's seeds.
type TelemetryCI struct {
	Name string
	// FramesDropped is the across-seed mean of dropped export frames.
	FramesDropped stats.MetricCI
	// FlowCoverage is the fraction of lossless-scored flows surviving the
	// loss.
	FlowCoverage stats.MetricCI
	// BaselineMedianRelErr / DegradedMedianRelErr are the per-flow error
	// distributions before and after loss; DeltaMedianRelErr is their
	// per-seed difference (N = 0 for aggregate-only mechanisms).
	BaselineMedianRelErr stats.MetricCI
	DegradedMedianRelErr stats.MetricCI
	DeltaMedianRelErr    stats.MetricCI
	// DegradedAggRelErr scores the surviving aggregate estimate.
	DegradedAggRelErr stats.MetricCI
}

// DetectionCI is one mechanism's across-seed adversarial-detection row:
// how much of the hidden delay it exposed, as mean ± 95% CI over the
// sweep's seeds, and on what fraction of seeds it cleared the detection
// threshold.
type DetectionCI struct {
	Name string
	// Exposure is the across-seed distribution of the exposed fraction of
	// the true aggregate shift.
	Exposure stats.MetricCI
	// DetectedFrac is the fraction of seeds on which the mechanism's
	// exposure cleared DetectionThreshold.
	DetectedFrac float64
}

// detectionCIs folds the per-seed detection reports into across-seed rows,
// nil when the spec ran without an adversary.
func detectionCIs(perSeed []*Result) []DetectionCI {
	if len(perSeed) == 0 || perSeed[0].Detection == nil {
		return nil
	}
	rows := make([]DetectionCI, len(perSeed[0].Detection.Rows))
	for i, first := range perSeed[0].Detection.Rows {
		var exp []float64
		detected := 0
		for _, r := range perSeed {
			row := r.Detection.Rows[i]
			if row.Estimator != first.Estimator {
				panic("scenario: detection tables diverge across seeds")
			}
			exp = append(exp, row.Exposure)
			if row.Detected {
				detected++
			}
		}
		rows[i] = DetectionCI{
			Name:         first.Estimator,
			Exposure:     stats.MetricOf(exp),
			DetectedFrac: float64(detected) / float64(len(perSeed)),
		}
	}
	return rows
}

// telemetryCIs folds the per-seed telemetry reports into across-seed rows,
// nil when the spec ran without telemetry loss.
func telemetryCIs(perSeed []*Result) []TelemetryCI {
	if len(perSeed) == 0 || perSeed[0].Telemetry == nil {
		return nil
	}
	rows := make([]TelemetryCI, len(perSeed[0].Telemetry.Rows))
	for i, first := range perSeed[0].Telemetry.Rows {
		var dropped, cov, base, deg, delta, agg []float64
		for _, r := range perSeed {
			row := r.Telemetry.Rows[i]
			if row.Estimator != first.Estimator {
				panic("scenario: telemetry tables diverge across seeds")
			}
			dropped = append(dropped, float64(row.FramesDropped))
			cov = append(cov, row.FlowCoverage())
			base = append(base, row.Baseline.MedianRelErr)
			deg = append(deg, row.Degraded.MedianRelErr)
			delta = append(delta, row.DeltaMedianRelErr())
			agg = append(agg, row.Degraded.AggRelErr)
		}
		rows[i] = TelemetryCI{
			Name:                 first.Estimator,
			FramesDropped:        stats.MetricOf(dropped),
			FlowCoverage:         stats.MetricOf(cov),
			BaselineMedianRelErr: metricOfFinite(base),
			DegradedMedianRelErr: metricOfFinite(deg),
			DeltaMedianRelErr:    metricOfFinite(delta),
			DegradedAggRelErr:    metricOfFinite(agg),
		}
	}
	return rows
}

// metricOfFinite folds the non-NaN samples into a stats.MetricCI: a mechanism that
// never produces a metric (LDA per-flow error) yields N = 0, rendered
// "n/a", rather than a NaN mean.
func metricOfFinite(samples []float64) stats.MetricCI {
	finite := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !math.IsNaN(s) {
			finite = append(finite, s)
		}
	}
	return stats.MetricOf(finite)
}

// estimatorCIs folds the per-seed comparison tables into across-seed rows.
// Every seed runs the same spec, so the tables have identical shape; the
// fold is by row index with the name asserted equal.
func estimatorCIs(perSeed []*Result) []EstimatorCI {
	if len(perSeed) == 0 || len(perSeed[0].Comparison) == 0 {
		return nil
	}
	rows := make([]EstimatorCI, len(perSeed[0].Comparison))
	for i, c := range perSeed[0].Comparison {
		var flows, med, p99, agg, inj, smp []float64
		for _, r := range perSeed {
			rc := r.Comparison[i]
			if rc.Estimator != c.Estimator {
				panic("scenario: comparison tables diverge across seeds")
			}
			flows = append(flows, float64(rc.Flows))
			med = append(med, rc.MedianRelErr)
			p99 = append(p99, rc.P99RelErr)
			agg = append(agg, rc.AggRelErr)
			inj = append(inj, float64(rc.Overhead.InjectedBytes))
			smp = append(smp, float64(rc.Overhead.SampledBytes))
		}
		rows[i] = EstimatorCI{
			Name:          c.Estimator,
			Flows:         stats.MetricOf(flows),
			MedianRelErr:  metricOfFinite(med),
			P99RelErr:     metricOfFinite(p99),
			AggRelErr:     metricOfFinite(agg),
			InjectedBytes: stats.MetricOf(inj),
			SampledBytes:  stats.MetricOf(smp),
		}
	}
	return rows
}

// RunMulti runs the spec at opts.Seeds SplitMix64-derived seeds fanned
// across the runner pool. Per-run simulations stay single-goroutine and
// deterministic; the result is identical for any worker count.
func RunMulti(spec Spec, opts MultiOpts) (*MultiResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seeds := opts.DeriveSeeds(spec.Seed)
	type out struct {
		res *Result
		err error
	}
	outs := runner.Map(seeds, opts.Workers, func(i int, seed int64) out {
		r, err := RunSeed(spec, seed)
		return out{r, err}
	})
	mr := &MultiResult{Spec: spec, Seeds: seeds}
	var medians, p90s, misattr, hot, p99us []float64
	snaps := make([][]collector.FlowAgg, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		mr.PerSeed = append(mr.PerSeed, o.res)
		medians = append(medians, o.res.Overall.MedianRelErr)
		p90s = append(p90s, o.res.Overall.P90RelErr)
		misattr = append(misattr, o.res.Misattribution)
		hot = append(hot, o.res.HotLinkUtil)
		p99us = append(p99us, float64(o.res.EstP99)/1e3)
		snaps = append(snaps, o.res.Fleet)
	}
	mr.MedianRelErr = stats.MetricOf(medians)
	mr.P90RelErr = stats.MetricOf(p90s)
	mr.Misattribution = stats.MetricOf(misattr)
	mr.HotLinkUtil = stats.MetricOf(hot)
	mr.EstP99Us = stats.MetricOf(p99us)
	mr.Estimators = estimatorCIs(mr.PerSeed)
	mr.Telemetry = telemetryCIs(mr.PerSeed)
	mr.Detection = detectionCIs(mr.PerSeed)
	mr.Fleet = collector.Merge(snaps...)
	return mr, nil
}

// CheckAll applies a scenario invariant to every per-seed result, returning
// the first violation.
func (mr *MultiResult) CheckAll(check func(*Result) error) error {
	for i, r := range mr.PerSeed {
		if err := check(r); err != nil {
			return fmt.Errorf("seed %d (%d): %w", i, mr.Seeds[i], err)
		}
	}
	return nil
}

// Render formats the sweep as a text report.
func (mr *MultiResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== scenario %s x %d seeds ==\n", mr.Spec.Name, len(mr.Seeds))
	fmt.Fprintf(&b, "medianRelErr   %s\n", mr.MedianRelErr)
	fmt.Fprintf(&b, "p90RelErr      %s\n", mr.P90RelErr)
	fmt.Fprintf(&b, "misattribution %s\n", mr.Misattribution)
	fmt.Fprintf(&b, "hotLinkUtil    %s\n", mr.HotLinkUtil)
	fmt.Fprintf(&b, "estP99 (µs)    %s\n", mr.EstP99Us)
	fmt.Fprintf(&b, "fleet flows    %d\n", len(mr.Fleet))
	if len(mr.Estimators) > 0 {
		fmt.Fprintf(&b, "estimator comparison (mean ±95%% CI over %d seeds):\n", len(mr.Seeds))
		fmt.Fprintf(&b, "%-16s %-12s %-18s %-18s %-18s %12s %12s\n",
			"estimator", "flows", "medianRelErr", "p99RelErr", "aggRelErr", "injBytes", "smpBytes")
		for _, e := range mr.Estimators {
			fmt.Fprintf(&b, "%-16s %-12.0f %-18s %-18s %-18s %12.0f %12.0f\n",
				e.Name, e.Flows.Mean, e.MedianRelErr, e.P99RelErr, e.AggRelErr,
				e.InjectedBytes.Mean, e.SampledBytes.Mean)
		}
	}
	if len(mr.Detection) > 0 {
		d := mr.PerSeed[0].Detection
		fmt.Fprintf(&b, "adversarial delay detection (hidden=%v; mean ±95%% CI over %d seeds):\n",
			d.HiddenDelay, len(mr.Seeds))
		fmt.Fprintf(&b, "%-16s %-18s %-10s\n", "estimator", "exposure", "detected")
		for _, row := range mr.Detection {
			fmt.Fprintf(&b, "%-16s %-18s %4.0f%%\n", row.Name, row.Exposure, row.DetectedFrac*100)
		}
	}
	if len(mr.Telemetry) > 0 {
		t := mr.PerSeed[0].Telemetry
		fmt.Fprintf(&b, "telemetry loss (frame=%d records, p(drop)=%.2f; mean ±95%% CI over %d seeds):\n",
			t.FrameRecords, t.LossRate, len(mr.Seeds))
		fmt.Fprintf(&b, "%-16s %-10s %-14s %-18s %-18s %-18s\n",
			"estimator", "dropped", "coverage", "medianRelErr", "degradedMedian", "degradedAgg")
		for _, row := range mr.Telemetry {
			fmt.Fprintf(&b, "%-16s %-10.1f %-14s %-18s %-18s %-18s\n",
				row.Name, row.FramesDropped.Mean, row.FlowCoverage,
				row.BaselineMedianRelErr, row.DegradedMedianRelErr, row.DegradedAggRelErr)
		}
	}
	return b.String()
}
