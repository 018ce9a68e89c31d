package scenario

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/stats"
)

// DetectionThreshold is the exposure fraction above which an estimator
// counts as having detected the adversary's hidden delay: it must surface at
// least this fraction of the true aggregate-delay shift the compromised
// switch introduced.
const DetectionThreshold = 0.5

// DetectionRow scores one estimator against the delay-gaming switch: its
// aggregate delay estimate on the clean and adversarial runs of the same
// seed, and how much of the true shift between the two runs it exposed.
type DetectionRow struct {
	// Estimator is the mechanism's registry name.
	Estimator string
	// CleanAgg / AdvAgg are the mechanism's aggregate mean delay estimates
	// on the paired clean and adversarial runs.
	CleanAgg time.Duration
	AdvAgg   time.Duration
	// Shift is AdvAgg - CleanAgg: the delay change the mechanism reported.
	Shift time.Duration
	// Exposure is Shift over the true aggregate shift: 1 means the
	// mechanism surfaced the hidden delay in full, 0 means the adversary
	// hid it completely.
	Exposure float64
	// Detected reports Exposure >= DetectionThreshold.
	Detected bool
}

// DetectionReport is an adversarial run's estimator scoreboard. The run is
// paired with a clean run at the identical seed and spec minus the
// adversary, so every difference between the two is the compromised
// switch's doing; each estimator is scored on how much of that difference
// its aggregate estimate exposes.
type DetectionReport struct {
	// HiddenDelay is the per-packet delay the adversary added to traffic it
	// predicted would go unmeasured.
	HiddenDelay time.Duration
	// Window is the length of the compromised interval.
	Window time.Duration
	// TrueShift is the ground-truth aggregate mean delay change between the
	// clean and adversarial runs — what a perfect estimator would report.
	TrueShift time.Duration
	// Threshold echoes DetectionThreshold.
	Threshold float64
	// Rows scores every requested mechanism in comparison-table order.
	Rows []DetectionRow
}

// Row returns the named estimator's detection row.
func (d *DetectionReport) Row(name string) (DetectionRow, bool) {
	for _, r := range d.Rows {
		if r.Estimator == name {
			return r, true
		}
	}
	return DetectionRow{}, false
}

// Table is the report as a table: per mechanism, its aggregate estimate on
// the clean and adversarial runs and the shift between them, the exposed
// fraction of the true shift, and the verdict as a 0/1 column, so its
// across-seed mean is the fraction of seeds the mechanism detected on. The
// window, threshold and true shift are notes. A nil report — the spec ran
// without an adversary — is the empty table.
func (d *DetectionReport) Table() stats.Table {
	if d == nil {
		return stats.Table{}
	}
	out := stats.Table{
		Title:     fmt.Sprintf("adversarial delay detection (hidden=%v)", d.HiddenDelay),
		RowHeader: "estimator",
		Columns:   []string{"cleanAgg(µs)", "advAgg(µs)", "shift(µs)", "exposure", "detected"},
		Notes: []string{
			fmt.Sprintf("window=%v threshold=%.2f", d.Window, d.Threshold),
			fmt.Sprintf("trueShift=%v", d.TrueShift),
		},
	}
	for _, r := range d.Rows {
		out.Rows = append(out.Rows, stats.TableRow{Label: r.Estimator, Cells: []float64{
			micros(r.CleanAgg), micros(r.AdvAgg), micros(r.Shift), r.Exposure, flag01(r.Detected),
		}})
	}
	return out
}

// buildDetection scores the paired runs. adv and clean ran the same spec at
// the same seed, differing only in the adversary, so their comparison tables
// are index-aligned.
func buildDetection(a AdversarySpec, adv, clean *Result) *DetectionReport {
	rep := &DetectionReport{
		HiddenDelay: a.Extra,
		Window:      a.End - a.Start,
		TrueShift:   adv.TrueAggMean - clean.TrueAggMean,
		Threshold:   DetectionThreshold,
	}
	for i, c := range adv.Comparison {
		cl := clean.Comparison[i]
		row := DetectionRow{
			Estimator: c.Estimator,
			CleanAgg:  cl.AggMean,
			AdvAgg:    c.AggMean,
			Shift:     c.AggMean - cl.AggMean,
		}
		if rep.TrueShift > 0 {
			row.Exposure = float64(row.Shift) / float64(rep.TrueShift)
		}
		row.Detected = row.Exposure >= rep.Threshold
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
