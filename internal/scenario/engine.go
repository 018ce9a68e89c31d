package scenario

import (
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netflow"
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
// observations and RLI estimates, each in global event order — and harvest
// folds it into the Result beside the run's receivers.
//
// The plane also runs the simulator's two neighbours beside its goroutine,
// each behind a pipe: every tap that only watches — receivers, estimators,
// capture — attaches through passive and runs on the plane's one consumer
// goroutine, in the order the simulator pushed them; every workload attaches
// through pull and is generated ahead on a producer goroutine of its own.
// Taps that act on the network (RLI senders, core marking, the tandem's
// utilization meter) stay inline.
type plane struct {
	cap       *capture       // nil unless the export stream is wanted
	meter     *netflow.Meter // the capture's meter when no baseline feeds it
	coll      *collector.Collector
	sink      *runner.Sink
	baselines []measure.Estimator
	truth     *measure.Truth
	shared    *measure.Dispatch

	// The passive taps' pipe: a passive tap writes one record, and the
	// consumer runs taps[rec.tap] on each in push order.
	taps []measure.TapFunc
	tapq *pipe[tapRecord]
	// The workloads' pipes, one producer each, read by their netsim.Source.
	work []*pipe[workRec]
}

// A run's consumer owns planeChunks chunks of planeChunk records each
// (≈ 0.5 MB with the records' hop lists): deep enough to ride out the
// stretches when the consumer shares its core with the producer, the
// collector and the GC — six chunks left the simulator waiting twice as
// long — and few enough hand-offs that the channel operations vanish beside
// the taps' own work. A workload's producer owns workChunks chunks of
// workChunk records (≈ 160 KB): the producer is several times faster than
// the simulator, so it waits with every chunk full, and the simulator
// waits only for the first one, which holds the generator's warm-up.
const (
	planeChunk  = 256
	planeChunks = 12
	workChunk   = 512
	workChunks  = 8
)

// tapRecord is one passive observation as the simulator saw it: the packet
// is copied because the simulator goes on to re-stamp SegmentStart at core
// down-ports, overwrite TOS at cores and append to Hops.
type tapRecord struct {
	pk  packet.Packet
	at  simtime.Time
	tap int
}

// passive registers t as a passive tap and returns the hook to attach in its
// place: it copies the packet and the instant into the pipe, and t runs on
// the consumer. Passive taps must not act on the network or read anything
// the simulator writes during the run.
func (p *plane) passive(t measure.TapFunc) measure.TapFunc {
	i := len(p.taps)
	p.taps = append(p.taps, t)
	return func(pk *packet.Packet, at simtime.Time) {
		rec := p.tapq.slot()
		pk.CopyTo(&rec.pk)
		rec.at, rec.tap = at, i
	}
}

// workRec is one workload packet as its producer generated it: the instant
// it reaches the ingress of host, and its flow key and size. The simulator
// turns each record into a packet.
type workRec struct {
	at   simtime.Time
	host *netsim.Node
	key  packet.FlowKey
	size int
}

// pull attaches a workload generated ahead: produce runs on a goroutine of
// its own, filling one record at a time until it reports the workload
// exhausted, and build, on the simulator's goroutine, makes each record's
// packet as the network pulls it, plus optionally a duplicate that the
// network pulls next, at the same instant and host. The producer starts
// here, so call pull once nothing before the run can fail; the pull that
// finds the workload exhausted joins it.
func (p *plane) pull(nw *netsim.Network, produce func(*workRec) bool, build func(*workRec) (pk, dup *packet.Packet)) {
	q := newPipe[workRec](workChunks)
	q.produce(workChunk, produce)
	p.work = append(p.work, q)
	var host *netsim.Node
	var at simtime.Time
	var dup *packet.Packet
	defer p.releaseOnPanic() // the first pull waits for the producer's first chunk
	nw.Pull(&netsim.Source{Next: func() (*netsim.Node, *packet.Packet, simtime.Time, bool) {
		if d := dup; d != nil {
			dup = nil
			return host, d, at, true
		}
		rec, ok := q.read()
		if !ok {
			return nil, nil, 0, false
		}
		var pk *packet.Packet
		pk, dup = build(rec)
		host, at = rec.host, rec.at
		return host, pk, at, true
	}})
}

// run is a run's stage four: sim drives the engine on the calling goroutine
// while the consumer runs the passive taps and the producers generate the
// workloads. When run returns — normally or by panic — every pipe is joined:
// the consumer has run every pushed record, and no goroutine is left. A
// panic on the far side of a pipe is re-raised here, with its value, as is
// the simulator's own, once the plane is released.
func (p *plane) run(sim func()) {
	p.tapq = newPipe[tapRecord](planeChunks)
	p.tapq.consume(planeChunk, p.replay)
	defer p.releaseOnPanic()
	// The consumer gets the partial chunk and finishes. Each producer has
	// been joined already: the network pulls its source until exhausted.
	defer p.tapq.close()
	sim()
}

// release stops everything a plane that will not be harvested holds — its
// run or a workload's first pull panicked, or instrumenting failed after
// the plane was made: every pipe's goroutine and the collector's shards. It
// raises nothing, so the failure that ended the run is the one reported.
func (p *plane) release() {
	if p.tapq != nil {
		p.tapq.stop()
	}
	for _, q := range p.work {
		q.stop()
	}
	if p.coll != nil {
		p.coll.Close()
	}
}

// releaseOnPanic, deferred, releases the plane when the function it guards
// panics, and re-raises the panic.
func (p *plane) releaseOnPanic() {
	if failure := recover(); failure != nil {
		p.release()
		panic(failure)
	}
}

// replay runs one chunk's records through their taps.
func (p *plane) replay(recs []tapRecord) {
	for i := range recs {
		rec := &recs[i]
		p.taps[rec.tap](&rec.pk, rec.at)
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
	if cap != nil {
		// The capture's records meter the segment end's regular traffic:
		// the Multiflow baseline's own segment-end meter when it runs, since
		// it sees exactly those packets, or else one the plane feeds.
		for _, b := range baselines {
			if mf, ok := b.(*measure.Multiflow); ok {
				cap.meter = mf.Down()
			}
		}
		if cap.meter == nil {
			cap.meter = netflow.NewMeter()
			p.meter = cap.meter
		}
	}
	return p, nil
}

func (p *plane) tapStart(pk *packet.Packet, at simtime.Time) { p.shared.TapStart(pk, at) }

func (p *plane) tapEnd(pk *packet.Packet, at simtime.Time) {
	p.shared.TapEnd(pk, at)
	if p.meter != nil {
		p.meter.Observe(pk.Key, pk.Size, at)
	}
}

func (p *plane) estimate(key packet.FlowKey, est, truth time.Duration) {
	p.sink.Add(key, est, truth)
	p.cap.addSample(key, est, truth)
}

// harvest is a run's last stage on two cores: the plane folds its own state
// on a goroutine of its own while receivers folds the run's receivers into
// res on the caller's and returns the RLI report. Both halves read only what
// the drained consumer finished writing, and they share nothing, so the
// join — before the comparison table — leaves every output as a serial fold
// would. A panic on the plane's goroutine is re-raised here, with its value.
func (p *plane) harvest(res *Result, receivers func() measure.Report) error {
	if c := p.cap; c != nil {
		c.taps = p.tapq.stats
		for _, q := range p.work {
			c.work.add(q.stats)
		}
	}
	var finals []measure.Report
	var flows []collector.FlowAgg
	// folded carries fold's exit, nil or its panic value; its one slot lets
	// the goroutine exit even if receivers panics and nothing receives.
	folded := make(chan any, 1)
	go func() {
		defer func() { folded <- recover() }()
		finals, flows = p.fold()
	}()
	rli := receivers()
	if failure := <-folded; failure != nil {
		panic(failure)
	}

	// The estimator comparison table: the run's RLI report plus one report
	// per baseline, all scored against the shared ground truth, with its
	// telemetry-loss and fleet re-scorings.
	reports := append([]measure.Report{rli}, finals...)
	res.Comparison = measure.Compare(p.truth, reports...)
	res.Comparison[0].Misattribution = res.Misattribution
	res.TrueAggMean = p.truth.AggMean()
	if t := res.Spec.Telemetry; t != nil {
		res.Telemetry = applyTelemetry(*t, res.Seed, p.truth, res.Comparison, reports)
	}
	res.Fleet, res.Samples = flows, p.coll.SamplesIngested()
	var err error
	if f := res.Spec.Fleet; f != nil {
		res.FleetReport, err = applyFleet(*f, p.cap, p.truth, res.Comparison, reports, res)
	}
	return err
}

// fold is the plane's half of harvest: it drains and closes the collector
// and takes its flow table, seals the capture's NetFlow records, then
// finalizes every baseline, in order. The collector closes first, so a
// baseline that panics leaves no shard goroutine behind.
func (p *plane) fold() (finals []measure.Report, flows []collector.FlowAgg) {
	p.sink.Flush()
	p.coll.Close()
	flows = p.coll.Snapshot()
	p.cap.seal()
	finals = make([]measure.Report, 0, len(p.baselines))
	for _, b := range p.baselines {
		finals = append(finals, b.Finalize())
	}
	return finals, flows
}
