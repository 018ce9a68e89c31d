package measure

import (
	"math"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// Estimator is one latency-measurement mechanism attached to a measured
// segment. Tap observes every accepted packet at the segment end (the
// downstream measurement point); it must not allocate in steady state —
// dispatch sits on the simulator's per-packet hot path. Finalize extracts
// the mechanism's deliverable after the run; it may allocate freely.
type Estimator interface {
	// Name returns the registry name ("rli", "lda", ...).
	Name() string
	// Tap observes one packet at the segment-end measurement point.
	Tap(p *packet.Packet, now simtime.Time)
	// Finalize computes the estimator's report. Call once, after the run.
	Finalize() Report
}

// StartTapper is implemented by estimators that also observe the
// segment-start measurement point: LDA's sender-side sketch and the
// NetFlow-derived baselines' upstream timestamps. RLI does not implement it
// — its segment-start information travels in reference packets.
type StartTapper interface {
	// TapStart observes one packet at the segment-start measurement point.
	TapStart(p *packet.Packet, now simtime.Time)
}

// Overhead accounts what a mechanism costs. The two axes are the paper's
// §5 comparison: RLI spends wire bandwidth (injected reference packets);
// the passive baselines spend collection state and export volume (sampled
// timestamps, flow records, sketch buckets).
type Overhead struct {
	// InjectedPkts / InjectedBytes count active probe packets added to the
	// measured segment's wire.
	InjectedPkts  uint64
	InjectedBytes uint64
	// SampledRecords / SampledBytes count the passive collection units the
	// mechanism must store and export: per-packet timestamp samples,
	// NetFlow records, or sketch buckets.
	SampledRecords uint64
	SampledBytes   uint64
}

// Add accumulates o into v.
func (v *Overhead) Add(o Overhead) {
	v.InjectedPkts += o.InjectedPkts
	v.InjectedBytes += o.InjectedBytes
	v.SampledRecords += o.SampledRecords
	v.SampledBytes += o.SampledBytes
}

// FlowEstimate is one flow's estimated mean delay.
type FlowEstimate struct {
	Key packet.FlowKey
	// Mean is the estimated mean per-packet delay across the segment.
	Mean time.Duration
	// N counts the samples behind the estimate (per-packet estimates for
	// RLI, sampled packets for the sampling baseline, 2 for Multiflow).
	N int64
	// Weight, when positive, is the flow's weight in its report's aggregate
	// in N's place: Multiflow's two samples stand for every packet the flow
	// carried.
	Weight int64
}

// weight is the flow's weight in its report's aggregate.
func (f *FlowEstimate) weight() int64 {
	if f.Weight > 0 {
		return f.Weight
	}
	return f.N
}

// Report is one estimator's deliverable for a finished run.
type Report struct {
	// Estimator is the registry name of the mechanism that produced it.
	Estimator string
	// Flows lists per-flow estimates sorted by flow key (empty for
	// aggregate-only mechanisms like LDA).
	Flows []FlowEstimate
	// AggMean is the mechanism's aggregate mean-delay estimate over every
	// packet/flow it could use, and AggSamples the count behind it. For
	// aggregate-only mechanisms this is the entire deliverable.
	AggMean    time.Duration
	AggSamples int64
	// Overhead accounts the mechanism's cost on this run.
	Overhead Overhead
}

// WithFlows returns r carrying flows, with its aggregate re-derived from
// them: AggSamples is the flows' summed weight and AggMean their
// weight-weighted mean (zero over no samples), where a flow's weight is its
// Weight if set and its N otherwise. Every per-flow report whose aggregate is
// its flows' — RLI's, Multiflow's, and any report thinned to the flows a
// lossy collection path kept — derives it here.
func (r Report) WithFlows(flows []FlowEstimate) Report {
	r.Flows, r.AggMean, r.AggSamples = flows, 0, 0
	var aggW float64
	for i := range flows {
		w := flows[i].weight()
		aggW += float64(flows[i].Mean) * float64(w)
		r.AggSamples += w
	}
	if r.AggSamples > 0 {
		r.AggMean = time.Duration(aggW / float64(r.AggSamples))
	}
	return r
}

// Truth is the harness-owned ground-truth table: per-flow and aggregate
// accumulators of the simulator's true segment delays, fed from the
// SegmentStart stamp the RLI sender writes at the segment-start point.
// Every estimator is scored against the same Truth, so relative errors are
// comparable across mechanisms regardless of which packets each one used.
type Truth struct {
	flows map[packet.FlowKey]*stats.Welford
	agg   stats.Welford
}

// NewTruth returns an empty ground-truth table.
func NewTruth() *Truth {
	return &Truth{flows: make(map[packet.FlowKey]*stats.Welford)}
}

// Tap folds one segment-end observation: the packet's true delay is the
// observation instant minus its stamped segment start. Steady-state cost is
// one map lookup and one Welford fold; a new flow's accumulator allocates
// once.
func (t *Truth) Tap(p *packet.Packet, now simtime.Time) {
	d := float64(now.Sub(p.SegmentStart))
	w, ok := t.flows[p.Key]
	if !ok {
		w = &stats.Welford{}
		t.flows[p.Key] = w
	}
	w.Add(d)
	t.agg.Add(d)
}

// Flows returns the number of flows observed.
func (t *Truth) Flows() int { return len(t.flows) }

// Packets returns the number of packets observed.
func (t *Truth) Packets() int64 { return t.agg.N() }

// AggMean returns the true aggregate mean delay.
func (t *Truth) AggMean() time.Duration { return time.Duration(t.agg.Mean()) }

// FlowMean returns one flow's true mean delay.
func (t *Truth) FlowMean(key packet.FlowKey) (time.Duration, bool) {
	w, ok := t.flows[key]
	if !ok {
		return 0, false
	}
	return time.Duration(w.Mean()), true
}

// Comparison is one row of the estimator comparison table: how a
// mechanism's report scores against the shared ground truth.
type Comparison struct {
	// Estimator is the mechanism's registry name.
	Estimator string
	// Flows counts flows with both an estimate and ground truth; Samples
	// counts the estimate samples behind them.
	Flows   int
	Samples int64
	// MedianRelErr / P99RelErr summarize the per-flow relative error
	// distribution |estMean - trueMean| / trueMean. NaN for aggregate-only
	// mechanisms.
	MedianRelErr float64
	P99RelErr    float64
	// AggMean / AggRelErr score the aggregate mean-delay estimate against
	// the true aggregate mean; AggSamples counts the observations behind
	// it (zero means the mechanism saw no traffic at all).
	AggMean    time.Duration
	AggSamples int64
	AggRelErr  float64
	// Misattribution is the demux audit for mechanisms that attribute
	// packets to reference streams (RLI); zero otherwise. The harness fills
	// it — attribution ground truth lives outside the estimator.
	Misattribution float64
	// Overhead is copied from the report.
	Overhead Overhead
}

// Compare scores reports against truth, one row per report, in input
// order.
func Compare(truth *Truth, reports ...Report) []Comparison {
	out := make([]Comparison, len(reports))
	for i := range reports {
		out[i] = Score(truth, &reports[i])
	}
	return out
}

// Score is one report's Compare row. It only reads truth, so reports may be
// scored concurrently.
func Score(truth *Truth, r *Report) Comparison {
	c := Comparison{
		Estimator:    r.Estimator,
		AggMean:      r.AggMean,
		AggSamples:   r.AggSamples,
		Overhead:     r.Overhead,
		MedianRelErr: math.NaN(),
		P99RelErr:    math.NaN(),
		AggRelErr:    math.NaN(),
	}
	if trueAgg := truth.AggMean(); trueAgg > 0 && r.AggSamples > 0 {
		c.AggRelErr = stats.RelErr(float64(r.AggMean), float64(trueAgg))
	}
	errs := make([]float64, 0, len(r.Flows))
	for _, f := range r.Flows {
		trueMean, ok := truth.FlowMean(f.Key)
		if !ok || trueMean <= 0 {
			continue
		}
		c.Flows++
		c.Samples += f.N
		errs = append(errs, stats.RelErr(float64(f.Mean), float64(trueMean)))
	}
	if len(errs) > 0 {
		cdf := stats.CDFOver(errs)
		c.MedianRelErr = cdf.Median()
		c.P99RelErr = cdf.Quantile(0.99)
	}
	return c
}

// TapFunc is a per-packet observation callback. It has the same signature
// as netsim.TapFunc, so Dispatch methods attach directly to netsim ports
// and nodes without this package depending on the simulator.
type TapFunc = func(p *packet.Packet, now simtime.Time)

// Dispatch fans one measured segment's packet stream to a set of
// estimators (and, at the segment end, the ground-truth table). The
// callback lists are fixed at construction, so the per-packet path is a
// slice walk over pre-bound method values — no allocation, no per-packet
// interface assertions.
type Dispatch struct {
	end   []TapFunc
	start []TapFunc
}

// NewDispatch builds the shared tap for a measured segment. truth (may be
// nil) and every estimator receive segment-end observations; estimators
// implementing StartTapper additionally receive segment-start
// observations.
func NewDispatch(truth *Truth, ests ...Estimator) *Dispatch {
	d := &Dispatch{}
	if truth != nil {
		d.end = append(d.end, truth.Tap)
	}
	for _, e := range ests {
		d.end = append(d.end, e.Tap)
		if st, ok := e.(StartTapper); ok {
			d.start = append(d.start, st.TapStart)
		}
	}
	return d
}

// TapStart feeds one segment-start observation to every estimator that
// wants one. Attach it at the upstream measurement point.
func (d *Dispatch) TapStart(p *packet.Packet, now simtime.Time) {
	for _, t := range d.start {
		t(p, now)
	}
}

// TapEnd feeds one segment-end observation to the truth table and every
// estimator. Attach it at the downstream measurement point.
func (d *Dispatch) TapEnd(p *packet.Packet, now simtime.Time) {
	for _, t := range d.end {
		t(p, now)
	}
}

// Taps returns the number of segment-end callbacks (diagnostics).
func (d *Dispatch) Taps() int { return len(d.end) }
