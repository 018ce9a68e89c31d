package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
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
	// Accept filters which non-reference packets this receiver estimates;
	// nil accepts everything. The paper's receiver estimates regular
	// traffic only, identified by source prefix.
	Accept func(*packet.Packet) bool
	// AcceptRef filters which reference packets this receiver consumes;
	// nil accepts all. Receivers sharing a path with foreign reference
	// streams (RLIR fan-out) must filter by destination address.
	AcceptRef func(*packet.Packet) bool
	// OnEstimate, when non-nil, observes every per-packet estimate as it is
	// produced — the receiver's one output, as it keeps no per-flow state: a
	// deployment streams these to a collection plane (internal/collector),
	// which folds each flow's statistics.
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

// Receiver is an RLI receiver instance: Figure 2's interpolation buffer and
// estimator. Each estimate leaves through OnEstimate; attributing it to its
// flow is the consumer's fold.
type Receiver struct {
	cfg     ReceiverConfig
	streams map[SenderID]*stream
	ctr     ReceiverCounters
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
	return &Receiver{cfg: cfg, streams: make(map[SenderID]*stream)}, nil
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
	if len(st.pending) >= DefaultMaxPending {
		// Evict oldest: freshest packets are the ones the next reference
		// brackets most tightly. Reslicing drops it in O(1); append moves
		// the buffer to a fresh array once the old one's tail is used up.
		st.pending = st.pending[1:]
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
		r.ctr.Estimated++
		if r.cfg.OnEstimate != nil {
			r.cfg.OnEstimate(pp.key, r.estimate(st, right, pp), pp.trueDelay)
		}
	}
	st.pending = st.pending[:0]
	st.last = right
	st.hasLast = true
}

// estimate applies the configured estimator for a packet bracketed by
// st.last and right. Linear and LeftRef buffer a packet only once its
// stream has a left reference; the others also place one without.
func (r *Receiver) estimate(st *stream, right refSample, pp pendingPkt) time.Duration {
	switch r.cfg.Estimator {
	case RightRef:
		return right.delay
	case LeftRef:
		return st.last.delay
	case Nearest:
		if st.hasLast && pp.arrival.Sub(st.last.arrival) <= right.arrival.Sub(pp.arrival) {
			return st.last.delay
		}
		return right.delay
	default: // Linear
		return interpolate(st.last, right, pp.arrival)
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
