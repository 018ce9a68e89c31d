package measure

import (
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// RLI adapts an RLI receiver (internal/core) to the estimator layer: Tap is
// the receiver's Observe hook, and Finalize extracts the per-flow mean
// estimates from the receiver's accumulators. Reference-packet overhead is
// accounted at the tap — every reference frame crossing the segment-end
// point is injected bandwidth this mechanism (and only this mechanism)
// spends.
type RLI struct {
	rx     *core.Receiver
	router string
	refs   Overhead
}

// NewRLI builds an RLI estimator around a fresh receiver. router names the
// measurement instance in the report ("tor3.0", "sw2").
func NewRLI(router string, cfg core.ReceiverConfig) (*RLI, error) {
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	return &RLI{rx: rx, router: router}, nil
}

// Name implements Estimator.
func (r *RLI) Name() string { return "rli" }

// Receiver exposes the wrapped receiver so harnesses can keep their
// existing counter, per-flow and streaming plumbing.
func (r *RLI) Receiver() *core.Receiver { return r.rx }

// Tap implements Estimator. It is exactly the receiver's Observe hook plus
// overhead accounting, so attaching an RLI estimator instead of a bare
// receiver leaves the simulation — and the receiver's results —
// bit-identical.
func (r *RLI) Tap(p *packet.Packet, now simtime.Time) {
	if p.Kind == packet.Reference {
		r.refs.InjectedPkts++
		r.refs.InjectedBytes += uint64(p.Size)
	}
	r.rx.Observe(p, now)
}

// Finalize implements Estimator.
func (r *RLI) Finalize() Report { return r.ReportFrom(r.rx.Results(1)) }

// ReportFrom is Finalize over per-flow results the caller already took with
// Receiver().Results(1), so a harness that needs both sorts them once.
func (r *RLI) ReportFrom(results []core.FlowResult) Report {
	return ReportFromFlowResults("rli", r.router, results, r.refs)
}

// ReportFromFlowResults builds an RLI-shaped report from per-flow receiver
// results. Harnesses that own their receiver wiring (the tandem experiment)
// use it to produce the comparison row without re-attaching a second
// receiver.
func ReportFromFlowResults(name, router string, results []core.FlowResult, overhead Overhead) Report {
	rep := Report{Estimator: name, Overhead: overhead}
	var aggW float64
	for _, fr := range results {
		rep.Flows = append(rep.Flows, FlowEstimate{Key: fr.Key, Mean: fr.EstMean, N: fr.N})
		aggW += float64(fr.EstMean) * float64(fr.N)
		rep.AggSamples += fr.N
	}
	if rep.AggSamples > 0 {
		rep.AggMean = time.Duration(aggW / float64(rep.AggSamples))
	}
	rep.Routers = []RouterReport{{Router: router, Flows: len(rep.Flows), Estimates: rep.AggSamples}}
	return rep
}
