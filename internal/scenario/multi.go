package scenario

import (
	"fmt"
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
	// Estimators, Telemetry and Detection are the per-seed comparison,
	// telemetry-loss and adversarial-detection tables (Result.ComparisonTable,
	// TelemetryReport.Table, DetectionReport.Table) folded cell by cell;
	// the latter two have no rows unless the spec sets Spec.Telemetry /
	// Spec.Adversary. A metric a mechanism does not produce folds to N = 0.
	Estimators stats.TableCI
	Telemetry  stats.TableCI
	Detection  stats.TableCI
	// Fleet merges every run's collector snapshot in seed order.
	Fleet []collector.FlowAgg
}

// ComparisonTable is the run's estimator comparison (Result.Comparison):
// one row per mechanism, NaN where it does not produce the metric. It is
// what the paper's §5 argument rests on: per-flow fidelity, attribution
// quality, and what each mechanism costs (injected wire bytes vs sampled
// collection bytes).
func (r *Result) ComparisonTable() stats.Table {
	t := stats.Table{
		Title:     "estimator comparison",
		RowHeader: "estimator",
		Columns:   []string{"flows", "samples", "medianRelErr", "p99RelErr", "aggRelErr", "misattr", "injBytes", "smpBytes"},
	}
	for _, c := range r.Comparison {
		t.Rows = append(t.Rows, stats.TableRow{Label: c.Estimator, Cells: []float64{
			float64(c.Flows), float64(c.Samples), c.MedianRelErr, c.P99RelErr, c.AggRelErr, c.Misattribution,
			float64(c.Overhead.InjectedBytes), float64(c.Overhead.SampledBytes),
		}})
	}
	return t
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
	for _, sub := range []struct {
		dst   *stats.TableCI
		table func(*Result) stats.Table
	}{
		{&mr.Estimators, (*Result).ComparisonTable},
		{&mr.Telemetry, func(r *Result) stats.Table { return r.Telemetry.Table() }},
		{&mr.Detection, func(r *Result) stats.Table { return r.Detection.Table() }},
	} {
		tables := make([]stats.Table, len(mr.PerSeed))
		for i, r := range mr.PerSeed {
			tables[i] = sub.table(r)
		}
		var err error
		if *sub.dst, err = stats.FoldTables(tables); err != nil {
			return nil, err
		}
	}
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
	for _, t := range []stats.TableCI{mr.Estimators, mr.Detection, mr.Telemetry} {
		if len(t.Rows) > 0 {
			b.WriteString(t.Render())
		}
	}
	return b.String()
}
