package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// This file is the tandem topology: the paper's Figure-3 harness, built and
// run from a Spec, and the three base specs every figure starts from.

// tandemScales are the magnitudes behind TandemSpec. The paper replays 60 s
// of an OC-192 (~10 Gbps) link; "default" is a scaled-down equivalent with
// the same utilization ratios, which is what the figures' shapes depend on.
var tandemScales = [...]struct {
	name       string
	linkBps    float64
	duration   time.Duration
	queueBytes int
}{
	{"small", 200e6, 400 * time.Millisecond, 96 << 10}, // unit tests and CI: a fraction of a second
	{"default", 1e9, 2 * time.Second, 256 << 10},       // seconds on a laptop, smooth CDFs
	{"full", 10e9, 60 * time.Second, 1 << 20},          // minutes and gigabytes
}

// TandemSpec returns the Figure-3 base spec at the named scale (small,
// default, full — the CLIs' -scale vocabulary): regular traffic at the
// paper's ~22% of the line rate, random cross traffic raising the
// bottleneck to 93%, the static 1-and-100 scheme, RLI as the only
// estimator, seed 1. The error lists the valid names.
func TandemSpec(scale string) (Spec, error) {
	names := make([]string, len(tandemScales))
	for i, sc := range tandemScales {
		if sc.name == scale {
			return Spec{
				Version:  SpecVersion,
				Name:     "tandem-" + sc.name,
				Topology: TopologySpec{Kind: TopoTandem, LinkBps: sc.linkBps, QueueBytes: sc.queueBytes},
				Workload: WorkloadSpec{LoadFrac: 0.22, CrossModel: CrossUniform, CrossUtil: 0.93},
				Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: core.DefaultStatic().N, Estimators: []string{"rli"}},
				Duration: sc.duration,
				Seed:     1,
			}, nil
		}
		names[i] = sc.name
	}
	return Spec{}, fmt.Errorf("unknown scale %q (valid: %s)", scale, strings.Join(names, ", "))
}

// CrossModel selects the cross-traffic selection model of §4.1. The values
// are the spec vocabulary (WorkloadSpec.CrossModel, JSON "cross_model").
type CrossModel string

const (
	// CrossUniform is the random (persistent congestion) model.
	CrossUniform CrossModel = "uniform"
	// CrossBursty is the on/off model.
	CrossBursty CrossModel = "bursty"
	// CrossNone disables cross traffic, and is what an empty model runs.
	CrossNone CrossModel = "none"
)

// String names the model the way the paper's legends do.
func (m CrossModel) String() string {
	switch m {
	case CrossUniform:
		return "random"
	case "":
		return string(CrossNone)
	}
	return string(m)
}

// Label names a tandem run the way the paper's legends do: injection
// scheme, cross-traffic model, target bottleneck utilization.
func (s Spec) Label() string {
	scheme := SchemeNone
	if s.Deploy.Scheme != SchemeNone {
		scheme = s.scheme().Name()
	}
	return fmt.Sprintf("%s, %s, %.0f%%", scheme, s.Workload.CrossModel, s.Workload.CrossUtil*100)
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

// runTandem executes one Figure-3 simulation: regular traffic through an
// instrumented switch sw1, cross traffic merging at sw2's bottleneck link,
// per-flow latency estimated across both hops. The spec's baseline
// estimators tap the sender point (segment start) and the bottleneck
// transmit point (segment end) of the same run through the shared dispatch;
// cross traffic also crosses the bottleneck, so both taps filter to the
// regular workload — the population the RLI receiver estimates.
func runTandem(spec Spec, seed int64, cap *capture) (*Result, error) {
	pl, err := newPlane(spec, seed, cap)
	if err != nil {
		return nil, err
	}
	t, w, dur := spec.Topology, spec.Workload, spec.Duration
	prop, proc := t.Propagation, t.ProcDelay
	if prop == 0 {
		prop = time.Microsecond
	}
	if proc == 0 {
		proc = 500 * time.Nanosecond
	}
	eng := eventsim.New()
	nw := netsim.New(eng)
	sw1 := nw.AddNode(netsim.NodeConfig{Name: "sw1", ProcDelay: proc})
	sw2 := nw.AddNode(netsim.NodeConfig{Name: "sw2", ProcDelay: proc})
	sink := nw.AddNode(netsim.NodeConfig{Name: "sink"})
	link := netsim.LinkConfig{RateBps: t.LinkBps, Propagation: prop, QueueBytes: t.QueueBytes}
	nw.Connect(sw1, sw2, link)
	bottleneck := nw.Connect(sw2, sink, link)
	out0 := func(n *netsim.Node, p *packet.Packet) int { return 0 }
	sw1.SetForward(out0)
	sw2.SetForward(out0)

	res := &Result{Spec: spec, Seed: seed}

	// Regular workload into sw1. Flow lengths are capped relative to the
	// trace duration so tail truncation does not starve short runs of
	// their offered load.
	regCfg := trace.DefaultConfig()
	regCfg.Seed = seed
	regCfg.Duration = dur
	regCfg.TargetBps = w.LoadFrac * t.LinkBps
	regCfg.SrcPrefix = regularSrc
	regCfg.DstPrefix = regularDst
	regCfg.CapFlowLen()
	var regBps float64
	res.Injected, regBps = offered(regCfg)

	// Cross workload into sw2, thinned to hit the target utilization. The
	// keep probability is calibrated against the cross trace's MEASURED
	// rate (a dry pass over the same seed), not its configured target, so
	// truncation bias cannot shift the achieved utilization. The cross
	// trace offers 1.5x the line rate (~3x the regular one, as the paper's).
	// Its packet IDs will follow the regular ones, whose count the regular
	// trace's dry pass gave.
	var crossSource *crossinject.Source
	if w.CrossModel != CrossNone && w.CrossModel != "" {
		crossCfg := trace.DefaultConfig()
		crossCfg.Seed = seed + 7919
		crossCfg.Duration = dur
		crossCfg.TargetBps = 1.5 * t.LinkBps
		crossCfg.SrcPrefix = crossSrc
		crossCfg.DstPrefix = crossDst
		crossCfg.CapFlowLen()
		_, crossBps := offered(crossCfg)
		var model crossinject.Model
		if w.CrossModel == CrossBursty {
			// Defaults: period = Duration/3 with on = period/2 — the paper's
			// 10-seconds-per-minute analogue. Bursts must span many
			// interpolation windows and hold the bottleneck queue deep; that
			// is what produces the large, slowly-varying delays interpolation
			// tracks so well in Figure 4(c).
			period, on := w.BurstPeriod, w.BurstOn
			if period == 0 {
				period = dur / 3
				on = period / 2
			}
			p := crossinject.BurstyParamsFor(w.CrossUtil, t.LinkBps, regBps, crossBps, on, period)
			model = crossinject.NewBursty(on, period, p, seed+104729)
		} else {
			p := crossinject.KeepProbabilityFor(w.CrossUtil, t.LinkBps, regBps, crossBps)
			model = crossinject.NewUniform(p, seed+104729)
		}
		crossSource = crossinject.NewSource(trace.NewGenerator(crossCfg), model)
	}

	// Instruments.
	var sender *core.Sender
	if spec.Deploy.Scheme != SchemeNone {
		// An adaptive sender's meter sees only its own link — ~22% — which
		// pins the gap at MinGap: the paper's observation.
		if sender, err = core.AttachSender(sw1.Port(0), core.SenderConfig{
			ID:        1,
			Addr:      packet.MustParseAddr("10.1.255.254"),
			Receivers: []packet.Addr{packet.MustParseAddr("10.200.255.254")},
			Scheme:    spec.scheme(),
			Util:      spec.utilization(sw1.Port(0)),
		}); err != nil {
			pl.release()
			return nil, err
		}
	}
	interp, _ := spec.Deploy.interpolation() // validated
	rec := &routerRec{}
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		Demux:     core.SingleDemux{ID: 1},
		Estimator: interp,
		Clock:     spec.Deploy.ReceiverClock.Clock(),
		Accept: func(p *packet.Packet) bool {
			return p.Kind == packet.Regular && regularSrc.Contains(p.Key.Src)
		},
		OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
			rec.record(est, truth)
			pl.estimate(key, est, truth)
		},
	})
	if err != nil {
		pl.release()
		return nil, err
	}

	// Passive taps: the receiver and the segment end share the bottleneck's
	// record, the segment start follows the sender at sw1, and the
	// bottleneck queue's drops are regular traffic's loss accounting.
	bottleneck.OnTxStart(pl.passive(func(p *packet.Packet, now simtime.Time) {
		receiver.Observe(p, now)
		if p.Kind == packet.Regular {
			pl.tapEnd(p, now)
		}
	}))
	bottleneck.OnDrop(pl.passive(func(p *packet.Packet, _ simtime.Time) {
		if p.Kind == packet.Regular {
			res.RegularDropped++
		}
	}))
	sw1.Port(0).OnTxStart(pl.passive(func(p *packet.Packet, now simtime.Time) {
		if p.Kind == packet.Regular {
			pl.tapStart(p, now)
		}
	}))

	// Both workloads start generating ahead only now that nothing can fail
	// before the run. Run to empty: the utilization meter schedules nothing,
	// so the queue drains once the last packet leaves.
	replay(pl, sw1, trace.NewGenerator(regCfg), packet.Regular, 0)
	if crossSource != nil {
		replay(pl, sw2, crossSource, packet.Cross, uint64(res.Injected))
	}
	pl.run(func() { eng.Run() })

	// Harvest: the receiver's half here, the plane's beside it.
	if err := pl.harvest(res, func(res *Result, rows func() []collector.FlowAgg) measure.Overhead {
		res.Receiver = receiver.Counters()
		if sender != nil {
			res.Sender = sender.Counters()
		}
		if crossSource != nil {
			res.CrossAdmitted = crossSource.Admitted()
		}
		c := bottleneck.Counters()
		res.HotLinkUtil = simtime.Rate(int64(c.TxBytes), 0, simtime.FromDuration(dur)) / t.LinkBps
		// The receiver's flows are the collector's rows; the RLI row's
		// reference overhead is the sender's own injection counter.
		flows := rows()
		res.Results = make([]core.FlowResult, len(flows))
		for i := range flows {
			res.Results[i] = core.FlowResultOf(flows[i].Key, &flows[i].Est, &flows[i].True)
		}
		res.Overall = core.Summarize(res.Results)
		rs := RouterStats{Router: "sw2", Segment: "sw1-egress->bottleneck", Summary: res.Overall}
		rec.fill(&rs)
		res.Routers = []RouterStats{rs}
		res.EstP50, res.EstP99 = rs.EstP50, rs.EstP99
		res.TrueP50, res.TrueP99 = rs.TrueP50, rs.TrueP99
		return measure.Overhead{
			InjectedPkts:  res.Sender.Injected,
			InjectedBytes: res.Sender.Injected * core.DefaultRefSize,
		}
	}); err != nil {
		return nil, err
	}
	if err := res.Diagnostics.count(nw); err != nil {
		return nil, err
	}
	return res, nil
}

// offered dry-runs a generator config and returns its packet count and
// actual offered rate over the configured duration.
func offered(cfg trace.Config) (int, float64) {
	gen := trace.NewGenerator(cfg)
	var n int
	var bytes uint64
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		n++
		bytes += uint64(rec.Size)
	}
	return n, float64(bytes*8) / cfg.Duration.Seconds()
}

// replay pulls a trace into a node as a workload, generated ahead on the
// plane's producer; its packet IDs count on from after.
func replay(pl *plane, into *netsim.Node, src trace.Source, kind packet.Kind, after uint64) {
	var slab packet.Slab
	pl.pull(into.Network(), func(w *workRec) bool {
		rec, ok := src.Next()
		*w = workRec{at: rec.At, host: into, key: rec.Key, size: rec.Size}
		return ok
	}, func(w *workRec) (*packet.Packet, *packet.Packet) {
		after++
		p := slab.New()
		*p = packet.Packet{ID: after, Key: w.key, Size: w.size, Kind: kind}
		return p, nil
	})
}
