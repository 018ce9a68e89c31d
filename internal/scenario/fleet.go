package scenario

import (
	"fmt"
	"reflect"
	"strconv"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/stats"
)

// FleetInstance is one collection partition's share of the run.
type FleetInstance struct {
	// Instance is the partition index (fleet.Partition's value).
	Instance int
	// Flows / Samples count what the partition collected.
	Flows   int
	Samples uint64
	// Failed marks the partition the spec killed.
	Failed bool
}

// FleetEstimatorRow scores one estimator before and after an instance loss:
// both rows are measured from the same run and scored against the same
// ground truth, so their difference is exactly what the dead partition's
// data was worth.
type FleetEstimatorRow struct {
	// Estimator is the mechanism's registry name.
	Estimator string
	// FlowsLost counts the per-flow records that lived on the failed
	// instance. Zero for aggregate-only mechanisms (their one deliverable
	// is not flow-partitioned).
	FlowsLost int
	// Baseline / Degraded are the comparison rows with the full fleet and
	// with the failed partition's data gone.
	Baseline measure.Comparison
	Degraded measure.Comparison
}

// FleetReport is a finished run's distributed-collection outcome: the
// partitioned fleet's exact-merge equivalence to the single-node flow table,
// and — when the spec kills an instance — the per-estimator accuracy cost.
type FleetReport struct {
	// Instances is the fleet size.
	Instances int
	// MergeExact reports whether merging every partition's snapshot
	// reproduced the single-node flow table bit-for-bit (reflect.DeepEqual,
	// no tolerance). Flow-disjoint partitioning makes this a theorem; this
	// field is its runtime witness.
	MergeExact bool
	// MergedFlows counts the merged table's rows (== the single-node count
	// whenever MergeExact).
	MergedFlows int
	// FailInstance is the killed partition index, or -1.
	FailInstance int
	// PerInstance lists each partition's share, in index order.
	PerInstance []FleetInstance
	// DegradedFlows counts the merged table's rows without the failed
	// partition (MergedFlows when no failure is injected).
	DegradedFlows int
	// Rows re-scores every estimator under the instance loss, in
	// comparison-table order. Empty when no failure is injected.
	Rows []FleetEstimatorRow
}

// Row returns the named estimator's fleet row.
func (f *FleetReport) Row(name string) (FleetEstimatorRow, bool) {
	for _, r := range f.Rows {
		if r.Estimator == name {
			return r, true
		}
	}
	return FleetEstimatorRow{}, false
}

// Tables is the report as tables: each partition's share, with the merge
// verdict as a note, and — when the spec killed an instance — every
// estimator before and after the loss. A nil report (the spec ran no fleet)
// has none.
func (f *FleetReport) Tables() []stats.Table {
	if f == nil {
		return nil
	}
	verdict := "EXACT"
	if !f.MergeExact {
		verdict = "DIVERGED"
	}
	parts := stats.Table{
		Title:     fmt.Sprintf("fleet collection (%d instances)", f.Instances),
		RowHeader: "instance",
		Columns:   []string{"flows", "samples", "failed"},
		Notes:     []string{fmt.Sprintf("merge %s, %d flows", verdict, f.MergedFlows)},
	}
	for _, in := range f.PerInstance {
		parts.Rows = append(parts.Rows, stats.TableRow{Label: strconv.Itoa(in.Instance), Cells: []float64{
			float64(in.Flows), float64(in.Samples), flag01(in.Failed),
		}})
	}
	if f.FailInstance < 0 {
		return []stats.Table{parts}
	}
	loss := stats.Table{
		Title: fmt.Sprintf("after losing instance %d (%d of %d flows survive)",
			f.FailInstance, f.DegradedFlows, f.MergedFlows),
		RowHeader: "estimator",
		Columns:   []string{"flowsLost", "flows", "degradedFlows", "medianRelErr", "degradedMedian", "aggRelErr", "degradedAgg"},
	}
	for _, r := range f.Rows {
		loss.Rows = append(loss.Rows, stats.TableRow{Label: r.Estimator, Cells: []float64{
			float64(r.FlowsLost), float64(r.Baseline.Flows), float64(r.Degraded.Flows),
			r.Baseline.MedianRelErr, r.Degraded.MedianRelErr, r.Baseline.AggRelErr, r.Degraded.AggRelErr,
		}})
	}
	return []stats.Table{parts, loss}
}

// loseInstance thins one estimator's report to what survives when partition
// fail of n dies: per-flow records that hashed onto the dead instance are
// gone, and the aggregate is re-derived from the survivors — the same
// re-derivation a collection tier would do. Aggregate-only reports pass
// through untouched: their single deliverable is not flow-partitioned.
func loseInstance(r measure.Report, n, fail int) (measure.Report, int) {
	if len(r.Flows) == 0 {
		return r, 0
	}
	out := r
	kept := make([]measure.FlowEstimate, 0, len(r.Flows))
	for _, fe := range r.Flows {
		if fleet.Partition(fe.Key, n) != fail {
			kept = append(kept, fe)
		}
	}
	out.Flows = kept
	var aggW float64
	var aggN int64
	for _, fe := range kept {
		aggW += float64(fe.Mean) * float64(fe.N)
		aggN += fe.N
	}
	out.AggSamples = aggN
	out.AggMean = 0
	if aggN > 0 {
		out.AggMean = time.Duration(aggW / float64(aggN))
	}
	return out, len(r.Flows) - len(kept)
}

// applyFleet partitions the run's captured sample stream across f.Instances
// in-process collectors exactly the way fleet.Router shards rlird traffic
// (fleet.Partition on the flow key), then proves the merged fleet table
// against the run's own single-node table and, when the spec kills an
// instance, re-scores every estimator on the surviving partitions. baseline
// is the run's lossless comparison, index-aligned with reports.
func applyFleet(f FleetSpec, cap *capture, truth *measure.Truth, baseline []measure.Comparison, reports []measure.Report, res *Result) *FleetReport {
	n := f.Instances
	rep := &FleetReport{Instances: n, FailInstance: -1}

	parts := make([]*collector.Collector, n)
	for i := range parts {
		parts[i] = collector.New(collector.Config{Shards: 2})
	}
	// One pass in production order: routing preserves per-flow sample order
	// within each partition, which is all collector determinism needs.
	split := make([][]collector.Sample, n)
	for _, s := range cap.samples {
		i := fleet.Partition(s.Key, n)
		split[i] = append(split[i], s)
	}
	snaps := make([][]collector.FlowAgg, n)
	for i, p := range parts {
		p.Ingest(split[i])
		p.Close()
		snaps[i] = p.Snapshot()
		rep.PerInstance = append(rep.PerInstance, FleetInstance{
			Instance: i,
			Flows:    len(snaps[i]),
			Samples:  p.SamplesIngested(),
		})
	}
	merged := collector.Merge(snaps...)
	rep.MergedFlows = len(merged)
	rep.MergeExact = reflect.DeepEqual(merged, res.Fleet)
	rep.DegradedFlows = rep.MergedFlows

	if f.FailInstance == nil {
		return rep
	}
	fail := *f.FailInstance
	rep.FailInstance = fail
	rep.PerInstance[fail].Failed = true
	surviving := make([][]collector.FlowAgg, 0, n-1)
	for i, s := range snaps {
		if i != fail {
			surviving = append(surviving, s)
		}
	}
	rep.DegradedFlows = len(collector.Merge(surviving...))

	thinned := make([]measure.Report, len(reports))
	lost := make([]int, len(reports))
	for i, r := range reports {
		thinned[i], lost[i] = loseInstance(r, n, fail)
	}
	degraded := measure.Compare(truth, thinned...)
	for i := range reports {
		rep.Rows = append(rep.Rows, FleetEstimatorRow{
			Estimator: reports[i].Estimator,
			FlowsLost: lost[i],
			Baseline:  baseline[i],
			Degraded:  degraded[i],
		})
	}
	return rep
}
