package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// This file is the tandem topology: the paper's Figure-3 harness (RunTandem,
// which the figure and ablation experiments drive directly) and runTandem,
// which drives the same harness from a declarative Spec.

// Scale sets experiment magnitude. The paper replays 60 s of an OC-192
// (~10 Gbps) link; the default here is a scaled-down equivalent with the
// same utilization ratios, which is what the figures' shapes depend on.
type Scale struct {
	// LinkBps is the link rate of both hops (the second is the bottleneck).
	LinkBps float64
	// Duration is the trace length.
	Duration time.Duration
	// QueueBytes bounds each output queue.
	QueueBytes int
	// BaseUtil is the regular traffic's share of the bottleneck link
	// (the paper observes ~22%).
	BaseUtil float64
	// CrossOfferedUtil is the cross trace's full offered load as a link
	// fraction, before the injection model thins it (the paper's cross
	// trace is ~3x the regular one).
	CrossOfferedUtil float64
	// Seed drives every random choice.
	Seed int64
}

// SmallScale is sized for unit tests and CI: a fraction of a second.
func SmallScale() Scale {
	return Scale{LinkBps: 200e6, Duration: 400 * time.Millisecond, QueueBytes: 96 << 10,
		BaseUtil: 0.22, CrossOfferedUtil: 1.5, Seed: 1}
}

// DefaultScale runs in seconds on a laptop while giving smooth CDFs.
func DefaultScale() Scale {
	return Scale{LinkBps: 1e9, Duration: 2 * time.Second, QueueBytes: 256 << 10,
		BaseUtil: 0.22, CrossOfferedUtil: 1.5, Seed: 1}
}

// FullScale approximates the paper's magnitudes (60 s of 10 Gbps); expect
// minutes of wall-clock time and gigabytes of working set.
func FullScale() Scale {
	return Scale{LinkBps: 10e9, Duration: 60 * time.Second, QueueBytes: 1 << 20,
		BaseUtil: 0.22, CrossOfferedUtil: 1.5, Seed: 1}
}

// scales names the three sizes (the CLIs' -scale vocabulary).
var scales = [...]struct {
	name string
	of   func() Scale
}{{"small", SmallScale}, {"default", DefaultScale}, {"full", FullScale}}

// ParseScale returns the named scale; the error lists the valid names.
func ParseScale(name string) (Scale, error) {
	names := make([]string, len(scales))
	for i, sc := range scales {
		if sc.name == name {
			return sc.of(), nil
		}
		names[i] = sc.name
	}
	return Scale{}, fmt.Errorf("unknown scale %q (valid: %s)", name, strings.Join(names, ", "))
}

// CrossModel selects the cross-traffic selection model of §4.1. The values
// are the spec vocabulary (WorkloadSpec.CrossModel, JSON "cross_model").
type CrossModel string

const (
	// CrossUniform is the random (persistent congestion) model, and what a
	// zero TandemConfig.Model runs.
	CrossUniform CrossModel = "uniform"
	// CrossBursty is the on/off model.
	CrossBursty CrossModel = "bursty"
	// CrossNone disables cross traffic.
	CrossNone CrossModel = "none"
)

// String names the model the way the paper's legends do.
func (m CrossModel) String() string {
	if m == CrossUniform || m == "" {
		return "random"
	}
	return string(m)
}

// TandemConfig is one Figure-3 run.
type TandemConfig struct {
	Scale Scale
	// Scheme is the injection scheme; nil disables the RLI sender entirely
	// (the no-instrumentation baseline for Figure 5).
	Scheme core.InjectionScheme
	// AdaptiveLive, when true with an Adaptive scheme, drives the gap from
	// a live utilization meter on the sender's own link — which sees only
	// ~22% and therefore pins the gap at MinGap, the paper's observation.
	AdaptiveLive bool
	// Model and TargetUtil control the bottleneck's cross traffic.
	Model      CrossModel
	TargetUtil float64
	// BurstOn / BurstPeriod shape the bursty model. Defaults: period =
	// Duration/3 with on = period/2 — the paper's 10-seconds-per-minute
	// analogue. Bursts must span many interpolation windows and be intense
	// enough to hold the bottleneck queue deep; that is what produces the
	// large, slowly-varying delays that interpolation tracks so well in
	// Figure 4(c).
	BurstOn     time.Duration
	BurstPeriod time.Duration
	// Estimator overrides the receiver's interpolation variant.
	Estimator core.Estimator
	// SenderClock / ReceiverClock override perfect synchronization.
	SenderClock   simtime.Clock
	ReceiverClock simtime.Clock
	// MinFlowPackets filters the per-flow result set.
	MinFlowPackets int64
	// OnSenderPoint / OnReceiverPoint are optional extra taps at the two
	// measurement points, used to co-locate baseline instruments (LDA,
	// NetFlow meters) on the identical run.
	OnSenderPoint   netsim.TapFunc
	OnReceiverPoint netsim.TapFunc
	// OnEstimate, when non-nil, streams every per-packet estimate out of
	// the receiver as it is produced — the hook a collection plane
	// (internal/collector) ingests from.
	OnEstimate core.EstimateFunc
}

// TandemResult is everything a figure needs from one run.
type TandemResult struct {
	Config       TandemConfig
	Results      []core.FlowResult
	Summary      core.Summary
	Receiver     core.ReceiverCounters
	Sender       core.SenderCounters
	AchievedUtil float64
	// Regular traffic accounting at the bottleneck queue.
	RegularOffered uint64
	RegularDropped uint64
	// CrossAdmitted counts cross packets that passed the injection model.
	CrossAdmitted uint64
}

// LossRate returns the regular traffic's loss rate at the bottleneck.
func (r TandemResult) LossRate() float64 {
	if r.RegularOffered == 0 {
		return 0
	}
	return float64(r.RegularDropped) / float64(r.RegularOffered)
}

// Label names the run the way the paper's legends do.
func (r TandemResult) Label() string {
	scheme := "none"
	if r.Config.Scheme != nil {
		scheme = r.Config.Scheme.Name()
	}
	return fmt.Sprintf("%s, %s, %.0f%%", scheme, r.Config.Model, r.Config.TargetUtil*100)
}

// regularSrc is the regular traffic's address block; cross traffic is
// rebased elsewhere, which is how the receiver (and the paper) tells them
// apart.
var (
	regularSrc = packet.MustParsePrefix("10.1.0.0/16")
	regularDst = packet.MustParsePrefix("10.200.0.0/16")
	crossSrc   = packet.MustParsePrefix("172.16.0.0/16")
	crossDst   = packet.MustParsePrefix("172.17.0.0/16")
)

// RunTandem executes one Figure-3 simulation.
func RunTandem(cfg TandemConfig) TandemResult {
	sc := cfg.Scale
	eng := eventsim.New()
	nw := netsim.New(eng)
	sw1 := nw.AddNode(netsim.NodeConfig{Name: "sw1", ProcDelay: 500 * time.Nanosecond})
	sw2 := nw.AddNode(netsim.NodeConfig{Name: "sw2", ProcDelay: 500 * time.Nanosecond})
	sink := nw.AddNode(netsim.NodeConfig{Name: "sink"})
	link := netsim.LinkConfig{RateBps: sc.LinkBps, Propagation: time.Microsecond, QueueBytes: sc.QueueBytes}
	nw.Connect(sw1, sw2, link)
	bottleneck := nw.Connect(sw2, sink, link)
	out0 := func(n *netsim.Node, p *packet.Packet) int { return 0 }
	sw1.SetForward(out0)
	sw2.SetForward(out0)

	res := TandemResult{Config: cfg}

	// Regular workload into sw1. Flow lengths are capped relative to the
	// trace duration so tail truncation does not starve short runs of
	// their offered load.
	regCfg := trace.DefaultConfig()
	regCfg.Seed = sc.Seed
	regCfg.Duration = sc.Duration
	regCfg.TargetBps = sc.BaseUtil * sc.LinkBps
	regCfg.SrcPrefix = regularSrc
	regCfg.DstPrefix = regularDst
	regCfg.CapFlowLen()
	regBps := replay(nw, sw1, trace.NewGenerator(regCfg), packet.Regular, &res.RegularOffered, sc.Duration)

	// Cross workload into sw2, thinned to hit the target utilization. The
	// keep probability is calibrated against the cross trace's MEASURED
	// rate (a dry pass over the same seed), not its configured target, so
	// truncation bias cannot shift the achieved utilization.
	var crossSource *crossinject.Source
	if cfg.Model != CrossNone {
		crossCfg := trace.DefaultConfig()
		crossCfg.Seed = sc.Seed + 7919
		crossCfg.Duration = sc.Duration
		crossCfg.TargetBps = sc.CrossOfferedUtil * sc.LinkBps
		crossCfg.SrcPrefix = crossSrc
		crossCfg.DstPrefix = crossDst
		crossCfg.CapFlowLen()
		crossBps := measuredRate(crossCfg)
		var model crossinject.Model
		if cfg.Model == CrossBursty {
			period := cfg.BurstPeriod
			if period == 0 {
				period = sc.Duration / 3
			}
			on := cfg.BurstOn
			if on == 0 {
				on = period / 2
			}
			p := crossinject.BurstyParamsFor(cfg.TargetUtil, sc.LinkBps, regBps, crossBps, on, period)
			model = crossinject.NewBursty(on, period, p, sc.Seed+104729)
		} else {
			p := crossinject.KeepProbabilityFor(cfg.TargetUtil, sc.LinkBps, regBps, crossBps)
			model = crossinject.NewUniform(p, sc.Seed+104729)
		}
		crossSource = crossinject.NewSource(trace.NewGenerator(crossCfg), model)
		replay(nw, sw2, crossSource, packet.Cross, nil, sc.Duration)
	}

	// Instruments.
	var sender *core.Sender
	if cfg.Scheme != nil {
		sCfg := core.SenderConfig{
			ID:        1,
			Addr:      packet.MustParseAddr("10.1.255.254"),
			Receivers: []packet.Addr{packet.MustParseAddr("10.200.255.254")},
			Scheme:    cfg.Scheme,
			Clock:     cfg.SenderClock,
		}
		if cfg.AdaptiveLive {
			m := netsim.NewUtilMeter(sw1.Port(0), 10*time.Millisecond, 0.3)
			m.Start()
			sCfg.Util = m
		}
		var err error
		sender, err = core.AttachSender(sw1.Port(0), sCfg)
		if err != nil {
			panic(err)
		}
	}
	receiver, err := core.AttachReceiverTx(bottleneck, core.ReceiverConfig{
		Demux:     core.SingleDemux{ID: 1},
		Estimator: cfg.Estimator,
		Clock:     cfg.ReceiverClock,
		Accept: func(p *packet.Packet) bool {
			return p.Kind == packet.Regular && regularSrc.Contains(p.Key.Src)
		},
		OnEstimate: cfg.OnEstimate,
	})
	if err != nil {
		panic(err)
	}

	// Loss accounting for regular traffic at the bottleneck queue.
	bottleneck.OnDrop(func(p *packet.Packet, _ simtime.Time) {
		if p.Kind == packet.Regular {
			res.RegularDropped++
		}
	})

	if cfg.OnSenderPoint != nil {
		sw1.Port(0).OnTxStart(cfg.OnSenderPoint)
	}
	if cfg.OnReceiverPoint != nil {
		bottleneck.OnTxStart(cfg.OnReceiverPoint)
	}

	// A bounded run rather than run-to-empty: the live utilization meter
	// re-arms its sampling ticker forever, so the event queue never drains
	// on its own. One extra second covers queue drain at any scale here.
	eng.RunUntil(simtime.FromDuration(sc.Duration + time.Second))

	res.Results = receiver.Results(max(1, cfg.MinFlowPackets))
	res.Summary = core.Summarize(res.Results)
	res.Receiver = receiver.Counters()
	if sender != nil {
		res.Sender = sender.Counters()
	}
	if crossSource != nil {
		res.CrossAdmitted = crossSource.Admitted()
	}
	c := bottleneck.Counters()
	res.AchievedUtil = simtime.Rate(int64(c.TxBytes), 0, simtime.FromDuration(sc.Duration)) / sc.LinkBps
	return res
}

// measuredRate dry-runs a generator config and returns its actual offered
// rate over the configured duration.
func measuredRate(cfg trace.Config) float64 {
	gen := trace.NewGenerator(cfg)
	var bytes uint64
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		bytes += uint64(rec.Size)
	}
	return float64(bytes*8) / cfg.Duration.Seconds()
}

// replay schedules a trace into a node and returns its mean offered rate
// over the window. If counter is non-nil it is incremented per packet.
func replay(nw *netsim.Network, into *netsim.Node, src trace.Source, kind packet.Kind, counter *uint64, window time.Duration) float64 {
	var bytes uint64
	var slab packet.Slab
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		bytes += uint64(rec.Size)
		if counter != nil {
			*counter++
		}
		p := slab.New()
		*p = packet.Packet{ID: nw.NewPacketID(), Key: rec.Key, Size: rec.Size, Kind: kind}
		nw.Inject(into, p, rec.At)
	}
	return float64(bytes*8) / window.Seconds()
}

// runTandem executes a tandem-topology scenario by driving the Figure-3
// harness with the spec's knobs, streaming estimates through the collector
// plane like the fat-tree path does. The spec's estimator set attaches to
// the harness's two measurement points through the shared dispatch, so one
// pass yields the full comparison table here too.
func runTandem(spec Spec, seed int64, cap *capture) (*Result, error) {
	sc := Scale{
		LinkBps:          spec.Topology.LinkBps,
		Duration:         spec.Duration,
		QueueBytes:       spec.Topology.QueueBytes,
		BaseUtil:         spec.Workload.LoadFrac,
		CrossOfferedUtil: 1.5,
		Seed:             seed,
	}
	model := spec.Workload.CrossModel
	if model == "" {
		model = CrossNone
	}

	// The unified estimator layer: baselines tap the sender point (segment
	// start) and the bottleneck transmit point (segment end) of the same
	// run the RLI receiver measures. Cross traffic also crosses the
	// bottleneck, so both taps filter to the regular workload — the same
	// population the receiver estimates.
	pl, err := newPlane(spec, seed, cap)
	if err != nil {
		return nil, err
	}
	rec := &routerRec{}
	cfg := TandemConfig{
		Scale:       sc,
		Scheme:      spec.scheme(),
		Model:       model,
		TargetUtil:  spec.Workload.CrossUtil,
		BurstOn:     spec.Workload.BurstOn,
		BurstPeriod: spec.Workload.BurstPeriod,
		OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
			rec.record(est, truth)
			pl.estimate(key, est, truth)
		},
		OnSenderPoint: func(p *packet.Packet, now simtime.Time) {
			if p.Kind == packet.Regular {
				pl.tapStart(p, now)
			}
		},
		OnReceiverPoint: func(p *packet.Packet, now simtime.Time) {
			if p.Kind == packet.Regular {
				pl.tapEnd(p, now)
			}
		},
	}
	tr := RunTandem(cfg)

	res := &Result{
		Spec:        spec,
		Seed:        seed,
		Injected:    int(tr.RegularOffered),
		Overall:     tr.Summary,
		HotLinkUtil: tr.AchievedUtil,
	}
	rs := RouterStats{Router: "sw2", Segment: "sw1-egress->bottleneck", Summary: tr.Summary}
	rec.fill(&rs)
	res.Routers = []RouterStats{rs}
	res.EstP50, res.EstP99 = rs.EstP50, rs.EstP99
	res.TrueP50, res.TrueP99 = rs.TrueP50, rs.TrueP99

	// The harness owns its receiver, so the RLI row comes from the run's
	// per-flow results; reference overhead from the sender's own injection
	// counter.
	pl.finish(res, measure.ReportFromFlowResults("rli", "sw2", tr.Results, measure.Overhead{
		InjectedPkts:  tr.Sender.Injected,
		InjectedBytes: tr.Sender.Injected * core.DefaultRefSize,
	}))
	return res, nil
}
