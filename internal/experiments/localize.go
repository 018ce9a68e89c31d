package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// LocalizationConfig is the paper's running scenario (T1 -> T7 across the
// cores of Figure 1): one source ToR's flows to one destination ToR,
// measured as per-core segments, with an optional injected fault.
type LocalizationConfig struct {
	// Spec is the healthy calibration pass. The default is the hotspot
	// pattern at skew 1 — every flow sources under ToR 0 of the pod after the
	// destination's — measured by RLI alone.
	Spec scenario.Spec
	// Fault is what the faulty pass adds to Spec: a FaultHopDelay at an
	// aggregation switch. In the destination pod it lands inside one core
	// group's core->ToR segments, in the source pod inside one group's
	// ToR-uplink->core segments. A zero End holds it to the end of the run;
	// nil runs the healthy network twice.
	Fault *scenario.FaultSpec
	// Threshold is the localizer's anomaly ratio (default 3).
	Threshold float64
}

// DefaultLocalizationConfig returns the k=4, T1->T7-style scenario with a
// 300µs fault at the destination pod's aggregation switch 0.
func DefaultLocalizationConfig() LocalizationConfig {
	s := scenario.DefaultSpec()
	s.Name = "localization"
	s.Workload = scenario.WorkloadSpec{
		Pattern:     scenario.PatternHotspot,
		HotspotSkew: 1,
		LoadFrac:    0.6,
		DestPod:     3,
	}
	s.Deploy.StaticN = 40
	s.Deploy.Estimators = []string{"rli"}
	s.Duration = 200 * time.Millisecond
	return LocalizationConfig{
		Spec:      s,
		Fault:     &scenario.FaultSpec{Kind: scenario.FaultHopDelay, AggPod: 3, AggIdx: 0, Extra: 300 * time.Microsecond},
		Threshold: 3,
	}
}

// passes returns the two runs' specs: they differ in Faults only.
func (cfg LocalizationConfig) passes() (healthy, faulty scenario.Spec) {
	healthy, faulty = cfg.Spec, cfg.Spec
	if cfg.Fault != nil {
		f := *cfg.Fault
		if f.End == 0 {
			f.End = cfg.Spec.Duration
		}
		faulty.Faults = append(slices.Clone(healthy.Faults), f)
	}
	return healthy, faulty
}

// endpoints resolves the destination ToR (pod, tor) and the pod the hotspot
// pattern sources its skewed flows under (the one after the destination's).
func (cfg LocalizationConfig) endpoints() (destPod, destToR, srcPod int) {
	k := cfg.Spec.Topology.K
	destPod = cfg.Spec.Workload.DestPod
	if destPod < 0 {
		destPod = k - 1
	}
	return destPod, cfg.Spec.Workload.DestToR, (destPod + 1) % k
}

// upSegName and downSegName name the two segments through core (j,i): the
// core-resident receiver's router stats and the scenario result's segment.
func upSegName(j, i int) string { return fmt.Sprintf("tor-uplink->core%d.%d", j, i) }
func downSegName(j, i, destPod, destToR int) string {
	return fmt.Sprintf("core%d.%d->tor%d.%d", j, i, destPod, destToR)
}

// LocalizationResult reports the calibration and fault runs.
type LocalizationResult struct {
	Config LocalizationConfig
	// Baseline and Faulty are per-segment reports from the two runs, in
	// matching order (upstream segments first, then downstream).
	Baseline []core.SegmentReport
	Faulty   []core.SegmentReport
	// Anomalies is the localizer's verdict.
	Anomalies []core.Anomaly
	// ExpectedSegments names segments that truly contain the fault.
	ExpectedSegments []string
}

// Localized reports whether every flagged segment is truly faulty and at
// least one faulty segment was flagged.
func (r LocalizationResult) Localized() bool {
	if len(r.ExpectedSegments) == 0 {
		return len(r.Anomalies) == 0
	}
	if len(r.Anomalies) == 0 {
		return false
	}
	expected := map[string]bool{}
	for _, s := range r.ExpectedSegments {
		expected[s] = true
	}
	for _, a := range r.Anomalies {
		if !expected[a.Segment] {
			return false
		}
	}
	return true
}

// FaultyInflation is the mean faulty/baseline latency ratio over the truly
// faulty segments (0 when none has a baseline).
func (r LocalizationResult) FaultyInflation() float64 {
	var ratio float64
	var n int
	for i, b := range r.Baseline {
		if slices.Contains(r.ExpectedSegments, b.Name) && b.Mean > 0 {
			ratio += float64(r.Faulty[i].Mean) / float64(b.Mean)
			n++
		}
	}
	if n > 0 {
		ratio /= float64(n)
	}
	return ratio
}

// RunLocalization runs the healthy calibration pass and the faulty pass on
// the scenario engine, then localizes with per-segment baselines — the
// paper's end-to-end story: RLIR divides the T1->T7 path into segments and
// the inflated segment identifies the sick router group.
func RunLocalization(cfg LocalizationConfig) (LocalizationResult, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = 3
	}
	if cfg.Threshold <= 1 {
		return LocalizationResult{}, fmt.Errorf("experiments: localizer threshold %v must exceed 1", cfg.Threshold)
	}
	if f := cfg.Fault; f != nil && f.Kind != scenario.FaultHopDelay {
		return LocalizationResult{}, fmt.Errorf("experiments: localization injects a %s fault, not %q", scenario.FaultHopDelay, f.Kind)
	}
	healthy, faulty := cfg.passes()
	base, err := scenario.Run(healthy)
	if err != nil {
		return LocalizationResult{}, err
	}
	sick, err := scenario.Run(faulty)
	if err != nil {
		return LocalizationResult{}, err
	}

	res := LocalizationResult{Config: cfg, Baseline: cfg.segmentReports(base), Faulty: cfg.segmentReports(sick)}
	loc := core.NewLocalizer(cfg.Threshold)
	loc.CalibrateFrom(res.Baseline)
	res.Anomalies = loc.Examine(res.Faulty)

	if f := cfg.Fault; f != nil {
		destPod, destToR, srcPod := cfg.endpoints()
		for i := 0; i < cfg.Spec.Topology.K/2; i++ {
			switch f.AggPod {
			case srcPod:
				res.ExpectedSegments = append(res.ExpectedSegments, upSegName(f.AggIdx, i))
			case destPod:
				res.ExpectedSegments = append(res.ExpectedSegments, downSegName(f.AggIdx, i, destPod, destToR))
			}
		}
	}
	return res, nil
}

// segmentReports reads one pass's segments off its result, in the same
// order for every pass: the ToR-uplink->core segment of each core (j,i)
// row-major, then the core->ToR segments likewise. A segment no flow crossed
// reports zero packets.
func (cfg LocalizationConfig) segmentReports(r *scenario.Result) []core.SegmentReport {
	h := cfg.Spec.Topology.K / 2
	destPod, destToR, _ := cfg.endpoints()
	var up, down []core.SegmentReport
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			rs, _ := r.Router(fmt.Sprintf("core%d.%d", j, i))
			up = append(up, core.SegmentReport{Name: upSegName(j, i), Packets: uint64(rs.Summary.Estimates), Mean: rs.EstMean})
			name := downSegName(j, i, destPod, destToR)
			ss, _ := r.Segment(name)
			down = append(down, core.SegmentReport{Name: name, Packets: uint64(ss.Summary.Estimates), Mean: ss.EstMean})
		}
	}
	return append(up, down...)
}

// faultLabel names the injected fault: the label of its table row.
func (cfg LocalizationConfig) faultLabel() string {
	f := cfg.Fault
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("%s agg%d.%d +%v", f.Kind, f.AggPod, f.AggIdx, f.Extra)
}

const l1Title = "L1: latency anomaly localization across segments"

// Table is L1: one row for the injected fault, with the verdict as a 0/1
// column so its across-seed mean is the success rate, then one row per
// segment with its mean estimated delay in both passes. The localizer's
// verdicts are notes.
func (r LocalizationResult) Table() stats.Table {
	nan := math.NaN()
	localized := 0.0
	if r.Localized() {
		localized = 1
	}
	t := stats.Table{
		Title:     l1Title,
		RowHeader: "fault / segment",
		Columns:   []string{"localized", "faultyInflation", "baseline(µs)", "faulty(µs)"},
		Rows: []stats.TableRow{{
			Label: r.Config.faultLabel(),
			Cells: []float64{localized, r.FaultyInflation(), nan, nan},
		}},
	}
	for i, b := range r.Baseline {
		t.Rows = append(t.Rows, stats.TableRow{Label: b.Name, Cells: []float64{nan, nan, micros(b.Mean), micros(r.Faulty[i].Mean)}})
	}
	if len(r.Anomalies) == 0 {
		t.Notes = append(t.Notes, "verdict: no anomalies flagged")
	}
	for _, a := range r.Anomalies {
		t.Notes = append(t.Notes, fmt.Sprintf("verdict: %s", a))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("localized correctly: %v (expected %v)", r.Localized(), r.ExpectedSegments))
	return t
}
