package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/stats"
)

// RouterStats is one measured router's view: the accuracy summary of every
// estimate its receiver produced plus the estimated and ground-truth delay
// tails of the segment it terminates.
type RouterStats struct {
	// Router is the node name ("core0.1", "tor3.0").
	Router string
	// Segment describes what the receiver measures ("tor-uplink->core",
	// "core->tor").
	Segment string
	// Summary is the per-flow accuracy at this router.
	Summary core.Summary
	// Tails of the per-packet estimated and true delay distributions, read
	// from a stats.Sketch: within stats.SketchRelErrBound of exact.
	EstP50, EstP99   time.Duration
	TrueP50, TrueP99 time.Duration
	// EstMean is the mean per-packet estimated delay — what the localizer
	// (core.Localizer) compares against a healthy run's.
	EstMean time.Duration
}

// SegmentStats is one core->monitored-ToR path segment, grouped from a
// downstream receiver's flows by which core each flow traversed. This is
// the view a fault on one core's down-link shows up in.
type SegmentStats struct {
	// Name is "coreJ.I->torP.E".
	Name string
	// Summary is the per-flow accuracy over the segment's flows; its
	// TrueMeanDelay is their estimate-weighted true mean delay.
	Summary core.Summary
	// EstMean is the estimate-weighted mean estimated delay.
	EstMean time.Duration
}

// Result is one scenario run's outcome.
type Result struct {
	Spec Spec
	// Seed is the seed this run actually used (differs from Spec.Seed in
	// multi-seed sweeps).
	Seed int64
	// Injected counts workload packets offered to the network (tandem: the
	// regular traffic; cross traffic is CrossAdmitted).
	Injected int
	// Overall aggregates every monitored downstream flow.
	Overall core.Summary
	// Results are the per-flow results Overall summarizes, sorted by flow
	// key within each downstream receiver.
	Results []core.FlowResult
	// Receiver and Sender sum the counters of every RLI receiver and sender
	// the run deployed.
	Receiver core.ReceiverCounters
	Sender   core.SenderCounters
	// RegularDropped counts regular packets dropped at the tandem's
	// bottleneck queue and CrossAdmitted the cross packets its injection
	// model let through. Both are zero on fat-trees.
	RegularDropped uint64
	CrossAdmitted  uint64
	// Upstream aggregates every core-resident receiver's flows (the
	// ToR-uplink -> core segments). Zero on tandem topologies.
	Upstream core.Summary
	// EstP50/EstP99/TrueP50/TrueP99 are the downstream per-packet delay
	// tails across all monitored routers, read like RouterStats' from the
	// merge of their sketches.
	EstP50, EstP99   time.Duration
	TrueP50, TrueP99 time.Duration
	// TrueAggMean is the ground-truth aggregate mean delay over every
	// monitored downstream packet — the reference every estimator's
	// aggregate is ultimately chasing (and the scale detection scores
	// shifts against).
	TrueAggMean time.Duration
	// Routers lists per-router accuracy (cores first, then monitored ToRs),
	// sorted by name.
	Routers []RouterStats
	// Segments lists per core->ToR segment statistics at monitored ToRs,
	// sorted by name. Empty on tandem topologies.
	Segments []SegmentStats
	// Misattribution is the fraction of classified downstream packets whose
	// demux decision disagrees with ground truth. Zero on tandem (a single
	// stream cannot be misattributed).
	Misattribution float64
	// HotLinkUtil is the highest achieved utilization over monitored ToR
	// host links (tandem: the bottleneck link) — the congestion the
	// scenario manufactured.
	HotLinkUtil float64
	// Fleet is the per-flow aggregate table streamed through the sharded
	// collector plane, sorted by flow key.
	Fleet []collector.FlowAgg
	// Samples counts estimates streamed into the collector.
	Samples uint64
	// Comparison is the estimator comparison table: every mechanism the
	// spec requested (Spec.EffectiveEstimators order, RLI first), measured
	// on this run's single simulation pass and scored against shared
	// ground truth.
	Comparison []measure.Comparison
	// Telemetry, when the spec sets Spec.Telemetry, re-scores every
	// mechanism after seeded export-frame loss — the accuracy cost of a
	// lossy collection path, next to the lossless Comparison.
	Telemetry *TelemetryReport
	// FleetReport, when the spec sets Spec.Fleet, proves the partitioned
	// collection tier's exact-merge equivalence and (with a failure
	// injected) quantifies per-estimator accuracy under instance loss.
	FleetReport *FleetReport
	// Detection, when the spec sets Spec.Adversary, scores every estimator
	// on whether it exposed the compromised switch's hidden delay against a
	// paired clean run at the same seed.
	Detection *DetectionReport
	// RepFlow, when the spec sets Workload.Replicate, scores the replicated
	// workload's first-arrival latency and path diversity.
	RepFlow *RepFlowReport
	// LinkTrace, when the spec sets Spec.LinkTrace, summarizes the replayed
	// link time series and the drops it caused.
	LinkTrace *LinkTraceReport
	// Diagnostics counts the work the run's machinery did.
	Diagnostics Diagnostics
}

// Diagnostics is what a run's machinery did, counted. Every field is a pure
// function of (spec, seed), so testdata/golden_costs.json pins each registry
// scenario's like an output; how long anything took, or how often the
// simulator waited on its neighbours, depends on scheduling and is not here.
type Diagnostics struct {
	// Events, Filings and PeakHeap are the event engine's Processed, Filed
	// and PeakHeap.
	Events, Filings uint64
	PeakHeap        int
	// Network is the network's books as Network.Audit summed them.
	Network netsim.Totals
	// TapHandoffs and WorkHandoffs count the chunks the simulator handed the
	// passive consumer and took from the workload producers, plus each far
	// side's exit.
	TapHandoffs, WorkHandoffs int
	// Estimates counts every receiver's per-packet estimates; Samples those
	// the collector ingested and Rows its flow table's rows.
	Estimates uint64
	Samples   uint64
	Rows      int
	// StartRecords and EndRecords count the flow records metered at the
	// segment start and end: the Multiflow baseline's meters, zero without
	// it.
	StartRecords, EndRecords int
	// UpstreamFlows counts the flows the core receivers folded (zero on a
	// tandem).
	UpstreamFlows int
}

// Table is the diagnostics as one value per row.
func (d Diagnostics) Table() stats.Table {
	t := stats.Table{Title: "diagnostics", RowHeader: "count", Columns: []string{"value"}}
	for _, row := range []struct {
		label string
		v     float64
	}{
		{"events", float64(d.Events)}, {"filings", float64(d.Filings)}, {"peakHeap", float64(d.PeakHeap)},
		{"injected", float64(d.Network.Injected)}, {"minted", float64(d.Network.Minted)},
		{"delivered", float64(d.Network.Delivered)}, {"dropped", float64(d.Network.Dropped)},
		{"lost", float64(d.Network.Lost)}, {"tapHandoffs", float64(d.TapHandoffs)},
		{"workHandoffs", float64(d.WorkHandoffs)}, {"estimates", float64(d.Estimates)},
		{"samples", float64(d.Samples)}, {"rows", float64(d.Rows)}, {"startRecords", float64(d.StartRecords)},
		{"endRecords", float64(d.EndRecords)}, {"upstreamFlows", float64(d.UpstreamFlows)},
	} {
		t.Rows = append(t.Rows, stats.TableRow{Label: row.label, Cells: []float64{row.v}})
	}
	return t
}

// LossRate is the regular traffic's loss rate at the tandem bottleneck
// (zero on fat-trees).
func (r *Result) LossRate() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.RegularDropped) / float64(r.Injected)
}

// Estimator returns the named mechanism's comparison row.
func (r *Result) Estimator(name string) (measure.Comparison, bool) {
	for _, c := range r.Comparison {
		if c.Estimator == name {
			return c, true
		}
	}
	return measure.Comparison{}, false
}

// Router returns the named router's stats.
func (r *Result) Router(name string) (RouterStats, bool) {
	for _, rs := range r.Routers {
		if rs.Router == name {
			return rs, true
		}
	}
	return RouterStats{}, false
}

// Segment returns the named segment's stats.
func (r *Result) Segment(name string) (SegmentStats, bool) {
	for _, s := range r.Segments {
		if s.Name == name {
			return s, true
		}
	}
	return SegmentStats{}, false
}

// renderFlows is how many per-flow rows Render prints.
const renderFlows = 10

// Render formats the result as a text report: the headline counters and
// summaries, the link-trace and replication summaries when the spec asked
// for them, the CDF of the per-flow errors, then every table the run
// produced, each drawn by stats.Table.Render.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== scenario %s (seed %d) ==\n", r.Spec.Name, r.Seed)
	fmt.Fprintf(&b, "injected=%d flows=%d estimates=%d samples=%d misattribution=%.4f hotLinkUtil=%.2f\n",
		r.Injected, r.Overall.Flows, r.Overall.Estimates, r.Samples, r.Misattribution, r.HotLinkUtil)
	fmt.Fprintf(&b, "overall: medianRelErr=%.4f p90RelErr=%.4f under10%%=%.1f%%\n",
		r.Overall.MedianRelErr, r.Overall.P90RelErr, r.Overall.FracUnder10Pct*100)
	fmt.Fprintf(&b, "delay tails: est p50=%v p99=%v | true p50=%v p99=%v\n",
		r.EstP50, r.EstP99, r.TrueP50, r.TrueP99)
	fmt.Fprintf(&b, "downstream: %s\n", r.Overall)
	tandem := r.Spec.Topology.Kind == TopoTandem
	if !tandem {
		fmt.Fprintf(&b, "upstream:   %s\n", r.Upstream)
	}
	fmt.Fprintf(&b, "receiver: %+v\nsender:   %+v\n", r.Receiver, r.Sender)
	if tandem {
		fmt.Fprintf(&b, "regular loss rate: %.6f\n", r.LossRate())
	}
	if r.LinkTrace != nil {
		b.WriteString(r.LinkTrace.Render())
	}
	if r.RepFlow != nil {
		b.WriteString(r.RepFlow.Render())
	}
	b.WriteString(core.MeanErrCDF(r.Results).Render("relative error (mean estimates)", 1e-3, 1e1, 9))
	tables := []stats.Table{r.flowTable(), r.routerTable(), r.segmentTable(), r.ComparisonTable(), r.Telemetry.Table()}
	tables = append(tables, r.FleetReport.Tables()...)
	for _, t := range append(tables, r.Detection.Table()) {
		if len(t.Rows) > 0 {
			b.WriteString(t.Render())
		}
	}
	return b.String()
}

// flowTable lists the first renderFlows per-flow results.
func (r *Result) flowTable() stats.Table {
	t := stats.Table{
		Title:     "per-flow results",
		RowHeader: "flow",
		Columns:   []string{"pkts", "estMean(µs)", "trueMean(µs)", "relErr", "relErrStd"},
	}
	for _, f := range r.Results[:min(len(r.Results), renderFlows)] {
		t.Rows = append(t.Rows, stats.TableRow{Label: f.Key.String(), Cells: []float64{
			float64(f.N), micros(f.EstMean), micros(f.TrueMean), f.RelErrMean, f.RelErrStd,
		}})
	}
	if more := len(r.Results) - renderFlows; more > 0 {
		t.Notes = []string{fmt.Sprintf("%d more flows", more)}
	}
	return t
}

// routerTable is per-router accuracy and delay tails.
func (r *Result) routerTable() stats.Table {
	t := stats.Table{
		Title:     "routers",
		RowHeader: "router (segment)",
		Columns:   []string{"flows", "medianRelErr", "estP50(µs)", "estP99(µs)", "trueP99(µs)"},
	}
	for _, rs := range r.Routers {
		t.Rows = append(t.Rows, stats.TableRow{Label: rs.Router + " (" + rs.Segment + ")", Cells: []float64{
			float64(rs.Summary.Flows), rs.Summary.MedianRelErr, micros(rs.EstP50), micros(rs.EstP99), micros(rs.TrueP99),
		}})
	}
	return t
}

// segmentTable is per core->ToR segment accuracy and mean delays.
func (r *Result) segmentTable() stats.Table {
	t := stats.Table{
		Title:     "segments",
		RowHeader: "segment",
		Columns:   []string{"flows", "medianRelErr", "estMean(µs)", "trueMean(µs)"},
	}
	for _, s := range r.Segments {
		t.Rows = append(t.Rows, stats.TableRow{Label: s.Name, Cells: []float64{
			float64(s.Summary.Flows), s.Summary.MedianRelErr, micros(s.EstMean), micros(s.Summary.TrueMeanDelay),
		}})
	}
	return t
}

// micros converts a duration to float64 microseconds, the unit tables
// print delays in.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// flag01 is a yes/no outcome as a table cell: its across-seed mean is the
// fraction of seeds it held on.
func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// routerRec accumulates one receiver's per-packet estimate/truth tails while
// the run streams them into the collector. estSum is the exact sum of the
// estimates, clamped at zero as the sketch clamps them, for EstMean.
type routerRec struct {
	est, truth stats.Sketch
	estSum     int64
}

func (rr *routerRec) record(est, truth time.Duration) {
	rr.est.Record(est)
	rr.truth.Record(truth)
	rr.estSum += int64(max(est, 0))
}

func (rr *routerRec) fill(rs *RouterStats) {
	rs.EstP50 = rr.est.QuantileDuration(0.5)
	rs.EstP99 = rr.est.QuantileDuration(0.99)
	rs.TrueP50 = rr.truth.QuantileDuration(0.5)
	rs.TrueP99 = rr.truth.QuantileDuration(0.99)
	if n := rr.est.Count(); n > 0 {
		rs.EstMean = time.Duration(rr.estSum / int64(n))
	}
}
