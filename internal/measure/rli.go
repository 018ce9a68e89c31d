package measure

import (
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// RLI adapts an RLI receiver (internal/core) to the estimator layer: Tap is
// the receiver's Observe hook, and the receiver's estimates fold per flow
// here, for Results and Finalize. Reference-packet overhead is accounted at
// the tap — every reference frame crossing the segment-end point is
// injected bandwidth this mechanism (and only this mechanism) spends.
type RLI struct {
	rx    *core.Receiver
	refs  Overhead
	flows map[packet.FlowKey]int // index into accs
	accs  []rliFlow
}

// rliFlow accumulates one flow's estimated and true per-packet delays (ns).
type rliFlow struct {
	key        packet.FlowKey
	est, truth stats.Welford
}

// NewRLI builds an RLI estimator around a fresh receiver. cfg.OnEstimate,
// when set, still sees every estimate, after the fold.
func NewRLI(cfg core.ReceiverConfig) (*RLI, error) {
	r := &RLI{flows: make(map[packet.FlowKey]int)}
	next := cfg.OnEstimate
	cfg.OnEstimate = func(key packet.FlowKey, est, truth time.Duration) {
		i, ok := r.flows[key]
		if !ok {
			i = len(r.accs)
			r.flows[key] = i
			r.accs = append(r.accs, rliFlow{key: key})
		}
		r.accs[i].est.Add(float64(est))
		r.accs[i].truth.Add(float64(truth))
		if next != nil {
			next(key, est, truth)
		}
	}
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	r.rx = rx
	return r, nil
}

// Name implements Estimator.
func (r *RLI) Name() string { return "rli" }

// Receiver exposes the wrapped receiver for its counters.
func (r *RLI) Receiver() *core.Receiver { return r.rx }

// Tap implements Estimator. It is exactly the receiver's Observe hook plus
// overhead accounting, so attaching an RLI estimator instead of a bare
// receiver leaves the simulation — and the receiver's estimates —
// bit-identical.
func (r *RLI) Tap(p *packet.Packet, now simtime.Time) {
	if p.Kind == packet.Reference {
		r.refs.InjectedPkts++
		r.refs.InjectedBytes += uint64(p.Size)
	}
	r.rx.Observe(p, now)
}

// Results returns every estimated flow's result, sorted by flow key.
func (r *RLI) Results() []core.FlowResult {
	out := make([]core.FlowResult, len(r.accs))
	for i := range r.accs {
		f := &r.accs[i]
		out[i] = core.FlowResultOf(f.key, &f.est, &f.truth)
	}
	packet.SortByKey(out, func(r *core.FlowResult) packet.FlowKey { return r.Key })
	return out
}

// Run is the summary fold of every estimated flow's result; it reads no
// order, so the results are neither gathered nor sorted first.
func (r *RLI) Run() core.Run {
	var fr core.FlowResult
	return core.RunFunc(len(r.accs), func(i int) *core.FlowResult {
		f := &r.accs[i]
		fr = core.FlowResultOf(f.key, &f.est, &f.truth)
		return &fr
	})
}

// Finalize implements Estimator.
func (r *RLI) Finalize() Report {
	results := r.Results()
	flows := make([]FlowEstimate, len(results))
	for i, fr := range results {
		flows[i] = FlowEstimate{Key: fr.Key, Mean: fr.EstMean, N: fr.N}
	}
	return Report{Estimator: r.Name(), Overhead: r.refs}.WithFlows(flows)
}
