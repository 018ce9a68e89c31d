package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// Estimator selects how a regular packet's delay is derived from the
// bracketing reference delays. Linear is the paper's estimator; the others
// exist for the ablation study (DESIGN.md A2).
type Estimator uint8

const (
	// Linear interpolates between the left and right reference delays by
	// arrival time — RLI's estimator.
	Linear Estimator = iota
	// LeftRef copies the earlier reference delay.
	LeftRef
	// RightRef copies the later reference delay.
	RightRef
	// Nearest copies whichever reference arrived closer in time.
	Nearest
	numEstimators
)

func (e Estimator) String() string {
	switch e {
	case Linear:
		return "linear"
	case LeftRef:
		return "left"
	case RightRef:
		return "right"
	case Nearest:
		return "nearest"
	default:
		return fmt.Sprintf("estimator(%d)", uint8(e))
	}
}

// ParseEstimator is String's inverse; the error lists the valid names.
func ParseEstimator(s string) (Estimator, error) {
	names := make([]string, numEstimators)
	for e := Linear; e < numEstimators; e++ {
		if e.String() == s {
			return e, nil
		}
		names[e] = e.String()
	}
	return 0, fmt.Errorf("unknown estimator %q (valid: %s)", s, strings.Join(names, ", "))
}

// DefaultMaxPending bounds the per-stream interpolation buffer. 1-and-300
// injection with jumbo bursts stays well under this; the bound exists so a
// dead sender cannot grow receiver memory without bound.
const DefaultMaxPending = 65536

// ReceiverConfig configures an RLI receiver instance.
type ReceiverConfig struct {
	// Demux attributes each regular packet to the sender whose reference
	// stream shares its path. Required: even the single-sender case states
	// its assumption explicitly via SingleDemux.
	Demux Demux
	// Estimator selects the interpolation variant (default Linear).
	Estimator Estimator
	// Clock is the receiver's local clock (default perfect sync).
	Clock simtime.Clock
	// MaxPending caps each stream's interpolation buffer (default
	// DefaultMaxPending; negative means unbounded).
	MaxPending int
	// Accept filters which non-reference packets this receiver estimates;
	// nil accepts everything. The paper's receiver estimates regular
	// traffic only, identified by source prefix.
	Accept func(*packet.Packet) bool
	// AcceptRef filters which reference packets this receiver consumes;
	// nil accepts all. Receivers sharing a path with foreign reference
	// streams (RLIR fan-out) must filter by destination address.
	AcceptRef func(*packet.Packet) bool
	// OnEstimate, when non-nil, observes every per-packet estimate as it is
	// produced — the receiver's export hook. A deployment streams these to a
	// collection plane (see internal/collector); estimates still fold into
	// the receiver's own per-flow accumulators regardless.
	OnEstimate EstimateFunc
}

// EstimateFunc receives one per-packet estimate: the flow it belongs to, the
// interpolated delay, and the simulator's ground-truth delay (what a real
// deployment cannot see; exported so accuracy can be evaluated downstream).
type EstimateFunc func(key packet.FlowKey, est, truth time.Duration)

// ReceiverCounters reports a receiver's activity.
type ReceiverCounters struct {
	RefsSeen       uint64 // reference packets consumed
	RefsForeign    uint64 // reference packets filtered out by AcceptRef
	RegularSeen    uint64 // accepted non-reference packets observed
	Filtered       uint64 // non-reference packets rejected by Accept
	Unattributed   uint64 // accepted packets the demux could not classify
	BeforeFirstRef uint64 // packets discarded for lack of a left reference
	Evicted        uint64 // packets evicted from a full interpolation buffer
	Estimated      uint64 // per-packet estimates produced
}

// Add sums o into c (a deployment's receivers into one view).
func (c *ReceiverCounters) Add(o ReceiverCounters) {
	c.RefsSeen += o.RefsSeen
	c.RefsForeign += o.RefsForeign
	c.RegularSeen += o.RegularSeen
	c.Filtered += o.Filtered
	c.Unattributed += o.Unattributed
	c.BeforeFirstRef += o.BeforeFirstRef
	c.Evicted += o.Evicted
	c.Estimated += o.Estimated
}

// FlowAcc accumulates one flow's estimated and true per-packet delays.
type FlowAcc struct {
	Est  stats.Welford // interpolated delays, in nanoseconds
	True stats.Welford // ground-truth delays, in nanoseconds
}

// refSample is a consumed reference observation.
type refSample struct {
	arrival simtime.Time // receiver-clock arrival instant
	delay   time.Duration
}

// pendingPkt is a buffered regular packet awaiting its closing reference.
type pendingPkt struct {
	key       packet.FlowKey
	arrival   simtime.Time
	trueDelay time.Duration
}

// stream is the per-sender interpolation state: the last reference sample
// and the buffer of regular packets since it (Figure 2's "interpolation
// buffer").
type stream struct {
	last    refSample
	hasLast bool
	pending []pendingPkt
}

// Receiver is an RLI receiver instance.
type Receiver struct {
	cfg     ReceiverConfig
	streams map[SenderID]*stream
	flows   map[packet.FlowKey]*FlowAcc
	accSlab []FlowAcc // slab the flow accumulators are carved from
	ctr     ReceiverCounters
}

// newFlowAcc carves one accumulator from the slab: first-packet-of-flow is
// a hot event (hundreds of flows per run), and one heap object per flow was
// the simulator's largest remaining allocation source. A full slab is
// abandoned to the map's pointers and replaced, so carved addresses never
// move.
func (r *Receiver) newFlowAcc() *FlowAcc {
	if len(r.accSlab) == cap(r.accSlab) {
		r.accSlab = make([]FlowAcc, 0, 128)
	}
	r.accSlab = append(r.accSlab, FlowAcc{})
	return &r.accSlab[len(r.accSlab)-1]
}

// NewReceiver builds a detached receiver. Attach Observe as a tap where the
// measured segment ends: a port's transmit start includes that port's queue
// in the segment (port.OnTxStart), a node's ingress is a receiver hosted
// "at" a router (node.OnReceive, §3.1).
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Demux == nil {
		return nil, fmt.Errorf("core: receiver requires a demultiplexer")
	}
	if cfg.Estimator >= numEstimators {
		return nil, fmt.Errorf("core: unknown estimator %d", cfg.Estimator)
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.PerfectClock{}
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	return &Receiver{
		cfg:     cfg,
		streams: make(map[SenderID]*stream),
		flows:   make(map[packet.FlowKey]*FlowAcc),
	}, nil
}

// Counters returns a snapshot of the receiver's counters.
func (r *Receiver) Counters() ReceiverCounters { return r.ctr }

// Observe feeds one packet observation at true instant now. It is the tap
// callback, exported so tests and alternative taps can drive the receiver
// directly.
func (r *Receiver) Observe(p *packet.Packet, now simtime.Time) {
	local := r.cfg.Clock.Read(now)
	if p.Kind == packet.Reference {
		if r.cfg.AcceptRef != nil && !r.cfg.AcceptRef(p) {
			r.ctr.RefsForeign++
			return
		}
		r.consumeRef(p, local)
		return
	}
	if r.cfg.Accept != nil && !r.cfg.Accept(p) {
		r.ctr.Filtered++
		return
	}
	r.ctr.RegularSeen++
	sid, ok := r.cfg.Demux.Classify(p)
	if !ok {
		r.ctr.Unattributed++
		return
	}
	st := r.stream(sid)
	if !st.hasLast && (r.cfg.Estimator == Linear || r.cfg.Estimator == LeftRef) {
		// No left reference yet: these estimators cannot place the packet.
		r.ctr.BeforeFirstRef++
		return
	}
	if r.cfg.MaxPending > 0 && len(st.pending) >= r.cfg.MaxPending {
		// Evict oldest: freshest packets are the ones the next reference
		// brackets most tightly.
		copy(st.pending, st.pending[1:])
		st.pending = st.pending[:len(st.pending)-1]
		r.ctr.Evicted++
	}
	st.pending = append(st.pending, pendingPkt{
		key:       p.Key,
		arrival:   local,
		trueDelay: now.Sub(p.SegmentStart),
	})
}

func (r *Receiver) stream(sid SenderID) *stream {
	st, ok := r.streams[sid]
	if !ok {
		st = &stream{}
		r.streams[sid] = st
	}
	return st
}

// consumeRef closes the interpolation window of the reference's stream.
func (r *Receiver) consumeRef(p *packet.Packet, local simtime.Time) {
	r.ctr.RefsSeen++
	right := refSample{arrival: local, delay: local.Sub(p.Ref.Timestamp)}
	st := r.stream(p.Ref.Sender)
	for _, pp := range st.pending {
		est, ok := r.estimate(st, right, pp)
		if !ok {
			r.ctr.BeforeFirstRef++
			continue
		}
		r.record(pp, est)
	}
	st.pending = st.pending[:0]
	st.last = right
	st.hasLast = true
}

// estimate applies the configured estimator for a packet bracketed by
// st.last (possibly absent) and right.
func (r *Receiver) estimate(st *stream, right refSample, pp pendingPkt) (time.Duration, bool) {
	switch r.cfg.Estimator {
	case RightRef:
		return right.delay, true
	case LeftRef:
		if !st.hasLast {
			return 0, false
		}
		return st.last.delay, true
	case Nearest:
		if !st.hasLast {
			return right.delay, true
		}
		if pp.arrival.Sub(st.last.arrival) <= right.arrival.Sub(pp.arrival) {
			return st.last.delay, true
		}
		return right.delay, true
	default: // Linear
		if !st.hasLast {
			return 0, false
		}
		return interpolate(st.last, right, pp.arrival), true
	}
}

// interpolate is RLI's linear interpolation: the packet's delay estimate is
// the left reference delay plus the delay slope between the references
// scaled by the packet's arrival offset.
func interpolate(left, right refSample, at simtime.Time) time.Duration {
	span := right.arrival.Sub(left.arrival)
	if span <= 0 {
		// References collapsed to one instant: average the endpoints.
		return (left.delay + right.delay) / 2
	}
	frac := float64(at.Sub(left.arrival)) / float64(span)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return left.delay + time.Duration(frac*float64(right.delay-left.delay))
}

// record folds one per-packet estimate into the flow state.
func (r *Receiver) record(pp pendingPkt, est time.Duration) {
	acc, ok := r.flows[pp.key]
	if !ok {
		acc = r.newFlowAcc()
		r.flows[pp.key] = acc
	}
	acc.Est.Add(float64(est))
	acc.True.Add(float64(pp.trueDelay))
	r.ctr.Estimated++
	if r.cfg.OnEstimate != nil {
		r.cfg.OnEstimate(pp.key, est, pp.trueDelay)
	}
}

// Flows returns the receiver's per-flow accumulators, live (not copies).
func (r *Receiver) Flows() map[packet.FlowKey]*FlowAcc { return r.flows }

// Flow returns one flow's accumulator.
func (r *Receiver) Flow(key packet.FlowKey) (*FlowAcc, bool) {
	acc, ok := r.flows[key]
	return acc, ok
}

// Streams returns the number of reference streams seen.
func (r *Receiver) Streams() int { return len(r.streams) }
