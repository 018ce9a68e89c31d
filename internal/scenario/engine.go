package scenario

import (
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// baselinesOf strips "rli" from an effective estimator list: RLI is wired
// into the receiver deployment itself; everything else attaches as passive
// taps on the shared dispatch.
func baselinesOf(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n != "rli" {
			out = append(out, n)
		}
	}
	return out
}

// Run executes one scenario at its spec seed.
func Run(spec Spec) (*Result, error) { return RunSeed(spec, spec.Seed) }

// RunSeed executes one scenario at an explicit seed (multi-seed sweeps
// derive per-run seeds and call this).
func RunSeed(spec Spec, seed int64) (*Result, error) {
	return runSeed(spec, seed, nil)
}

// runSeed dispatches on topology, optionally capturing the run's export
// stream (Export passes a capture; normal runs pass nil).
func runSeed(spec Spec, seed int64, cap *capture) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// A fleet spec needs the export stream even when the caller is not
	// exporting: the fleet report replays the captured samples through
	// partitioned collectors.
	if spec.Fleet != nil && cap == nil {
		cap = newCapture()
	}
	if spec.Topology.Kind == TopoTandem {
		return runTandem(spec, seed, cap)
	}
	return runFatTree(spec, seed, cap)
}

// scheme builds the injection scheme from the deployment spec.
func (s Spec) scheme() core.InjectionScheme {
	if s.Deploy.Scheme == SchemeAdaptive {
		a := core.DefaultAdaptive()
		if s.Deploy.MinGap > 0 {
			a.MinGap = s.Deploy.MinGap
		}
		if s.Deploy.MaxGap > 0 {
			a.MaxGap = s.Deploy.MaxGap
		}
		return a
	}
	n := s.Deploy.StaticN
	if n == 0 {
		n = 50
	}
	return core.Static{N: n}
}

// traceConfig builds the workload generator config for the given target
// rate, applying the spec's flow-shape overrides and the stationary warm-up
// with flow lengths capped relative to the window (so short runs still
// deliver their offered load).
func (s Spec) traceConfig(seed int64, targetBps float64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = s.Duration
	cfg.TargetBps = targetBps
	if s.Workload.FlowAlpha > 0 {
		cfg.FlowLen.Alpha = s.Workload.FlowAlpha
	}
	if s.Workload.FlowMaxLen > 0 {
		cfg.FlowLen.Max = s.Workload.FlowMaxLen
	}
	if s.Workload.MeanGap > 0 {
		cfg.MeanGap = s.Workload.MeanGap
	}
	cfg.CapFlowLen()
	return cfg
}

// burstGate wraps src in the microburst on/off admission model when the
// spec asks for one. The generator's target rate must already be scaled by
// the inverse duty cycle so the admitted average load matches the spec.
func (s Spec) burstGate(src trace.Source, seed int64) trace.Source {
	if s.Workload.BurstPeriod == 0 {
		return src
	}
	return crossinject.NewSource(src, crossinject.NewBursty(s.Workload.BurstOn, s.Workload.BurstPeriod, 1, seed+2099))
}

// dutyBoost is the factor the offered rate is scaled up by to compensate
// for microburst off-time.
func (s Spec) dutyBoost() float64 {
	if s.Workload.BurstPeriod == 0 {
		return 1
	}
	return float64(s.Workload.BurstPeriod) / float64(s.Workload.BurstOn)
}

// plane is the measurement plane both topologies feed: the sharded collector
// the RLI estimates stream through, the baseline estimators on one shared
// dispatch scored against one ground truth, and the optional export capture.
// A run hands it three things — segment-start observations, segment-end
// observations and RLI estimates, each in global event order — and finish
// folds it into the Result.
type plane struct {
	cap       *capture // nil unless the export stream is wanted
	coll      *collector.Collector
	sink      *runner.Sink
	baselines []measure.Estimator
	truth     *measure.Truth
	shared    *measure.Dispatch
}

func newPlane(spec Spec, seed int64, cap *capture) (*plane, error) {
	baselines, err := measure.NewSet(baselinesOf(spec.EffectiveEstimators()), measure.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	p := &plane{cap: cap, baselines: baselines, truth: measure.NewTruth()}
	p.coll = collector.New(collector.Config{Shards: 4})
	p.sink = runner.NewSink(p.coll, 0)
	p.shared = measure.NewDispatch(p.truth, baselines...)
	return p, nil
}

func (p *plane) tapStart(pk *packet.Packet, at simtime.Time) { p.shared.TapStart(pk, at) }

func (p *plane) tapEnd(pk *packet.Packet, at simtime.Time) {
	p.shared.TapEnd(pk, at)
	p.cap.observe(pk, at)
}

func (p *plane) estimate(key packet.FlowKey, est, truth time.Duration) {
	p.sink.Add(key, est, truth)
	p.cap.addSample(key, est, truth)
}

// finish builds the estimator comparison table — the run's RLI report plus
// one report per baseline, all scored against the shared ground truth — with
// its telemetry-loss and fleet re-scorings, and drains the collector.
func (p *plane) finish(res *Result, rli measure.Report) {
	reports := append(make([]measure.Report, 0, 1+len(p.baselines)), rli)
	for _, b := range p.baselines {
		reports = append(reports, b.Finalize())
	}
	res.Comparison = measure.Compare(p.truth, reports...)
	res.Comparison[0].Misattribution = res.Misattribution
	res.TrueAggMean = p.truth.AggMean()
	if t := res.Spec.Telemetry; t != nil {
		res.Telemetry = applyTelemetry(*t, res.Seed, p.truth, res.Comparison, reports)
	}
	p.sink.Flush()
	p.coll.Close()
	res.Fleet = p.coll.Snapshot()
	res.Samples = p.coll.SamplesIngested()
	if f := res.Spec.Fleet; f != nil {
		res.FleetReport = applyFleet(*f, p.cap, p.truth, res.Comparison, reports, res)
	}
}
