package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/stats"
)

// DefaultTelemetryFrameRecords is the export-frame granularity when the spec
// leaves frame_records zero: how many per-flow records ride in one frame of
// the modeled export stream.
const DefaultTelemetryFrameRecords = 16

// TelemetryRow is one estimator scored with and without export loss on the
// same run: the Baseline row is the lossless comparison, the Degraded row is
// the same report re-scored after its export frames were thinned. Both are
// scored against the identical ground truth, so the difference between them
// is exactly what the lost telemetry cost.
type TelemetryRow struct {
	// Estimator is the mechanism's registry name.
	Estimator string
	// FramesTotal / FramesDropped count the mechanism's export frames and
	// how many the loss model discarded. An aggregate-only mechanism (LDA)
	// exports its whole deliverable in one frame.
	FramesTotal   int
	FramesDropped int
	// Baseline / Degraded are the comparison rows before and after loss.
	Baseline measure.Comparison
	Degraded measure.Comparison
}

// FlowCoverage is the fraction of the lossless row's scored flows that
// survived the telemetry loss (1 when the baseline scored none).
func (r TelemetryRow) FlowCoverage() float64 {
	if r.Baseline.Flows == 0 {
		return 1
	}
	return float64(r.Degraded.Flows) / float64(r.Baseline.Flows)
}

// DeltaMedianRelErr is the degraded minus baseline median per-flow relative
// error (NaN when either side produces no per-flow metric).
func (r TelemetryRow) DeltaMedianRelErr() float64 {
	return r.Degraded.MedianRelErr - r.Baseline.MedianRelErr
}

// TelemetryReport is a finished run's estimator accuracy under telemetry
// loss, one row per requested mechanism in comparison-table order.
type TelemetryReport struct {
	// LossRate / FrameRecords echo the resolved spec knobs.
	LossRate     float64
	FrameRecords int
	Rows         []TelemetryRow
}

// Row returns the named estimator's telemetry row.
func (t *TelemetryReport) Row(name string) (TelemetryRow, bool) {
	for _, r := range t.Rows {
		if r.Estimator == name {
			return r, true
		}
	}
	return TelemetryRow{}, false
}

// Table is the report as a table: per mechanism, its export frames and how
// many were dropped, its scored flows before and after loss and their
// coverage, and the error before and after loss (NaN for the per-flow
// metrics of an aggregate-only mechanism). A nil report — the spec ran
// without telemetry loss — is the empty table.
func (t *TelemetryReport) Table() stats.Table {
	if t == nil {
		return stats.Table{}
	}
	out := stats.Table{
		Title:     fmt.Sprintf("telemetry loss (frame=%d records, p(drop)=%.2f)", t.FrameRecords, t.LossRate),
		RowHeader: "estimator",
		Columns: []string{"frames", "dropped", "flows", "degradedFlows", "coverage",
			"medianRelErr", "degradedMedian", "deltaMedian", "degradedAgg"},
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, stats.TableRow{Label: r.Estimator, Cells: []float64{
			float64(r.FramesTotal), float64(r.FramesDropped),
			float64(r.Baseline.Flows), float64(r.Degraded.Flows), r.FlowCoverage(),
			r.Baseline.MedianRelErr, r.Degraded.MedianRelErr, r.DeltaMedianRelErr(), r.Degraded.AggRelErr,
		}})
	}
	return out
}

// telemetryRNG derives one estimator's loss stream: seeded by the run seed
// and the estimator name, so each mechanism's losses are independent and the
// whole report is reproducible with the run.
func telemetryRNG(seed int64, estimator string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(estimator))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// thinReport applies frame loss to one report: the per-flow estimates are
// chunked into export frames of frameRecords consecutive records and each
// frame is dropped independently with probability loss. The surviving
// records are all the collection point has, so after a drop the aggregate
// is re-derived from them, by the report's own weights; with no frame
// dropped the report arrives as sent. An aggregate-only report travels as a
// single frame and is kept or lost whole.
func thinReport(r measure.Report, loss float64, frameRecords int, rng *rand.Rand) (measure.Report, int, int) {
	if len(r.Flows) == 0 {
		if r.AggSamples == 0 {
			return r, 0, 0
		}
		if rng.Float64() < loss {
			return r.WithFlows(nil), 1, 1
		}
		return r, 1, 0
	}
	var kept []measure.FlowEstimate
	total, dropped := 0, 0
	for off := 0; off < len(r.Flows); off += frameRecords {
		end := min(off+frameRecords, len(r.Flows))
		total++
		if rng.Float64() < loss {
			dropped++
			continue
		}
		kept = append(kept, r.Flows[off:end]...)
	}
	if dropped == 0 {
		return r, total, 0
	}
	return r.WithFlows(kept), total, dropped
}

// applyTelemetry scores every report with and without export loss against
// the same ground truth. baseline is the run's lossless comparison table,
// index-aligned with reports; the simulation itself is untouched — telemetry
// loss is a collection-path phenomenon, applied to what the estimators
// deliver, not to what they measured.
func applyTelemetry(t TelemetrySpec, seed int64, truth *measure.Truth, baseline []measure.Comparison, reports []measure.Report) *TelemetryReport {
	fr := t.FrameRecords
	if fr <= 0 {
		fr = DefaultTelemetryFrameRecords
	}
	rep := &TelemetryReport{LossRate: t.LossRate, FrameRecords: fr}
	thinned := make([]measure.Report, len(reports))
	totals := make([]int, len(reports))
	drops := make([]int, len(reports))
	for i, r := range reports {
		thinned[i], totals[i], drops[i] = thinReport(r, t.LossRate, fr, telemetryRNG(seed, r.Estimator))
	}
	degraded := measure.Compare(truth, thinned...)
	for i := range reports {
		rep.Rows = append(rep.Rows, TelemetryRow{
			Estimator:     reports[i].Estimator,
			FramesTotal:   totals[i],
			FramesDropped: drops[i],
			Baseline:      baseline[i],
			Degraded:      degraded[i],
		})
	}
	return rep
}
