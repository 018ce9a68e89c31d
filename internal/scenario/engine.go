package scenario

import (
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
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

// utilization returns what a sender on port adapts to, in either topology:
// for the adaptive scheme a started meter over the port's own link, a 10 ms
// EWMA window smoothed by 0.3 (paper §3.2's "estimated link utilization at
// the interface"); for the static scheme nothing.
func (s Spec) utilization(port *netsim.Port) core.UtilizationSource {
	if s.Deploy.Scheme != SchemeAdaptive {
		return nil
	}
	m := netsim.NewUtilMeter(port, 10*time.Millisecond, 0.3)
	m.Start()
	return m
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
//
// Every tap that only watches — receivers, estimators, capture — attaches
// through passive and runs on the plane's one consumer goroutine, in the
// order the simulator pushed them; taps that act on the network (RLI
// senders, core marking, the tandem's utilization meter) stay inline.
type plane struct {
	cap       *capture // nil unless the export stream is wanted
	coll      *collector.Collector
	sink      *runner.Sink
	baselines []measure.Estimator
	truth     *measure.Truth
	shared    *measure.Dispatch

	// The passive taps' queue: a passive tap fills cur; full chunks go to the
	// consumer, which runs taps[rec.tap] for each record and hands the chunk
	// back through free. done carries the consumer's exit: nil, or the value
	// a passive tap panicked with.
	taps       []measure.TapFunc
	cur        *tapChunk
	full, free chan *tapChunk
	done       chan any
}

// A run owns planeChunks chunks of planeChunk records each (≈ 0.2 MB): enough
// that the simulator rarely waits on the consumer, and few enough hand-offs
// that the channel operations vanish beside the taps' own work.
const (
	planeChunk  = 256
	planeChunks = 6
)

// tapRecord is one passive observation as the simulator saw it: the packet
// is copied because the simulator goes on to re-stamp SegmentStart at core
// down-ports, overwrite TOS at cores and append to Hops.
type tapRecord struct {
	pk  packet.Packet
	at  simtime.Time
	tap int
}

type tapChunk struct {
	n    int
	recs [planeChunk]tapRecord
}

// passive registers t as a passive tap and returns the hook to attach in its
// place: it copies the packet and the instant into the queue, and t runs on
// the consumer. Passive taps must not act on the network or read anything
// the simulator writes during the run.
func (p *plane) passive(t measure.TapFunc) measure.TapFunc {
	i := len(p.taps)
	p.taps = append(p.taps, t)
	return func(pk *packet.Packet, at simtime.Time) {
		c := p.cur
		rec := &c.recs[c.n]
		pk.CopyTo(&rec.pk)
		rec.at, rec.tap = at, i
		if c.n++; c.n == planeChunk {
			p.full <- c
			p.cur = <-p.free
		}
	}
}

// run is a run's stage four: sim drives the engine on the calling goroutine
// while the consumer runs the passive taps. When run returns — normally or
// by panic — the consumer has run every pushed record and exited; a passive
// tap's panic is re-raised here, with its value.
func (p *plane) run(sim func()) {
	// Both channels can hold every chunk, so no send ever blocks: the
	// simulator waits only for a free chunk, the consumer for a full one.
	p.full = make(chan *tapChunk, planeChunks)
	p.free = make(chan *tapChunk, planeChunks)
	for range planeChunks - 1 {
		p.free <- new(tapChunk)
	}
	p.cur = new(tapChunk)
	p.done = make(chan any, 1)
	go p.consume()
	defer p.drain()
	sim()
}

// consume replays full chunks in arrival order. After a tap panics it keeps
// returning chunks unread, so the simulator never blocks on a dead consumer.
func (p *plane) consume() {
	var failure any
	for c := range p.full {
		if failure == nil {
			failure = p.replay(c)
		}
		c.n = 0
		p.free <- c
	}
	p.done <- failure
}

// replay runs one chunk's records through their taps, returning the value a
// tap panicked with, if one did.
func (p *plane) replay(c *tapChunk) (failure any) {
	defer func() { failure = recover() }()
	for i := range c.recs[:c.n] {
		rec := &c.recs[i]
		p.taps[rec.tap](&rec.pk, rec.at)
	}
	return nil
}

// drain hands the consumer the partial chunk, waits for it to exit and
// re-raises a passive tap's panic on the caller.
func (p *plane) drain() {
	p.full <- p.cur
	p.cur = nil
	close(p.full)
	if failure := <-p.done; failure != nil {
		panic(failure)
	}
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
func (p *plane) finish(res *Result, rli measure.Report) error {
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
	var err error
	if f := res.Spec.Fleet; f != nil {
		res.FleetReport, err = applyFleet(*f, p.cap, p.truth, res.Comparison, reports, res)
	}
	return err
}
