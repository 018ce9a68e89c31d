package measure

import (
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/trace"
)

// DefaultSampleRate is the sampling baselines' default 1-in-N rate,
// NetFlow's classic 1-in-32 sampled mode.
const DefaultSampleRate = 32

// sampleRecordBytes is one exported timestamp sample: a 64-bit packet
// digest plus a 64-bit timestamp.
const sampleRecordBytes = 16

// Sampled is the pair-matching packet-sampling estimator: both measurement
// points pick the same deterministic 1-in-N subset of packets by their
// invariant ID (as trajectory sampling does), timestamp them, and matched
// pairs yield per-packet delays folded into per-flow means. Accuracy
// degrades with the sampling rate — a flow shorter than N packets usually
// contributes no estimate at all, which is exactly the blind spot the paper
// holds against sampled NetFlow (§5). The three registered samplers differ
// only in the membership rule:
//
//   - "netflow-sample" (NewSampled) hashes the ID with a seed both parties
//     treat as public configuration.
//   - "hash-sample" (NewHashSampled) uses ShouldSample's secret-keyed hash.
//     A compromised router that wants to hide added latency only has to
//     spare the packets it predicts will be measured; without the key it
//     cannot do better than chance at predicting membership, and it must
//     decide whether to delay a packet BEFORE the measurement points reveal
//     anything — the property the adversarial-delay scenario scores.
//   - "periodic-sample" (NewPeriodicSampled) takes every Nth packet ID. Its
//     subset is computable from packet headers alone, which is exactly what
//     a delay-gaming router exploits — it exists to quantify that failure
//     next to hash-sample's detection.
type Sampled struct {
	pairCore
	name string
	rate uint64
	// member decides whether the packet with this ID is in the 1-in-rate
	// sampled subset — the same decision at both measurement points.
	member func(id, rate uint64) bool
}

func newSampled(name string, rate int, member func(id, rate uint64) bool) *Sampled {
	if rate < 1 {
		rate = DefaultSampleRate
	}
	return &Sampled{pairCore: newPairCore(), name: name, rate: uint64(rate), member: member}
}

// NewSampled builds "netflow-sample" at a 1-in-rate sampling rate (rate < 1
// uses DefaultSampleRate). seed keys the sampling hash; both taps share it
// by construction.
func NewSampled(rate int, seed int64) *Sampled {
	return newSampled("netflow-sample", rate, func(id, rate uint64) bool {
		return rate == 1 || trace.SplitMix64(id^uint64(seed))%rate == 0
	})
}

// NewHashSampled builds "hash-sample" at a 1-in-rate sampling rate
// (rate < 1 uses DefaultSampleRate) with the given secret key.
func NewHashSampled(rate int, key uint64) *Sampled {
	return newSampled("hash-sample", rate, func(id, rate uint64) bool { return ShouldSample(key, id, rate) })
}

// NewPeriodicSampled builds "periodic-sample" at a 1-in-rate sampling rate
// (rate < 1 uses DefaultSampleRate).
func NewPeriodicSampled(rate int) *Sampled {
	return newSampled("periodic-sample", rate, periodicSampled)
}

// Name implements Estimator.
func (s *Sampled) Name() string { return s.name }

// TapStart implements StartTapper: sampled packets are timestamped on
// entry.
func (s *Sampled) TapStart(p *packet.Packet, now simtime.Time) {
	if s.member(p.ID, s.rate) {
		s.start(p.ID, now)
	}
}

// Tap implements Estimator: a sampled packet seen at both points yields one
// delay sample for its flow.
func (s *Sampled) Tap(p *packet.Packet, now simtime.Time) {
	if s.member(p.ID, s.rate) {
		s.end(p, now)
	}
}

// Finalize implements Estimator.
func (s *Sampled) Finalize() Report { return s.finalize(s.name) }

// ShouldSample reports whether the packet with invariant id belongs to the
// keyed 1-in-rate sample set. Both measurement points share key and rate,
// so they pick the same subset with no coordination; an observer without
// the key sees a set indistinguishable from a uniform random 1/rate draw
// (pinned by the chi-squared and adversary-prediction property tests).
// rate <= 1 samples everything.
func ShouldSample(key, id uint64, rate uint64) bool {
	if rate <= 1 {
		return true
	}
	// Two keyed SplitMix64 rounds: a single round is a public bijection of
	// id^key, and re-keying between rounds keeps the composition from being
	// invertible without the key.
	return trace.SplitMix64(trace.SplitMix64(id^key)^key)%rate == 0
}

// periodicSampled is the periodic sampler's membership rule — in one place
// so the adversary model in internal/scenario predicts with exactly the
// same rule.
func periodicSampled(id, rate uint64) bool {
	return rate <= 1 || id%rate == 0
}

// PredictPeriodic reports whether a header-only observer using the periodic
// rule would predict packet id to be sampled. It is the adversary's oracle
// for the periodic baseline (and, by construction, always right).
func PredictPeriodic(id uint64, rate int) bool {
	if rate < 1 {
		rate = DefaultSampleRate
	}
	return periodicSampled(id, uint64(rate))
}

// pairCore is the shared state of the pair-matching samplers: entry
// timestamps for sampled packets awaiting their exit observation, per-flow
// Welford folds of the matched delays, and export-overhead accounting.
type pairCore struct {
	inflight map[uint64]simtime.Time
	flows    map[packet.FlowKey]*stats.Welford
	overhead Overhead
}

func newPairCore() pairCore {
	return pairCore{
		inflight: make(map[uint64]simtime.Time),
		flows:    make(map[packet.FlowKey]*stats.Welford),
	}
}

// start timestamps a sampled packet at the entry measurement point.
func (c *pairCore) start(id uint64, now simtime.Time) {
	c.inflight[id] = now
	c.overhead.SampledRecords++
	c.overhead.SampledBytes += sampleRecordBytes
}

// end matches a sampled packet's exit observation with its entry timestamp,
// folding the delay into the packet's flow.
func (c *pairCore) end(p *packet.Packet, now simtime.Time) {
	c.overhead.SampledRecords++
	c.overhead.SampledBytes += sampleRecordBytes
	start, ok := c.inflight[p.ID]
	if !ok {
		return // entry sample lost (e.g. tapped only downstream)
	}
	delete(c.inflight, p.ID)
	w, ok := c.flows[p.Key]
	if !ok {
		w = &stats.Welford{}
		c.flows[p.Key] = w
	}
	w.Add(float64(now.Sub(start)))
}

// finalize builds the report. Flows fold into the aggregate in key order: a
// float merge in map-iteration order would differ by a rounding step between
// two identical runs.
func (c *pairCore) finalize(name string) Report {
	rep := Report{Estimator: name, Overhead: c.overhead, Flows: make([]FlowEstimate, 0, len(c.flows))}
	keys := make([]packet.FlowKey, 0, len(c.flows))
	for key := range c.flows {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, packet.FlowKey.Compare)
	var agg stats.Welford
	for _, key := range keys {
		w := c.flows[key]
		rep.Flows = append(rep.Flows, FlowEstimate{Key: key, Mean: time.Duration(w.Mean()), N: w.N()})
		agg.Merge(w)
	}
	rep.AggMean = time.Duration(agg.Mean())
	rep.AggSamples = agg.N()
	rep.Routers = []RouterReport{{Router: "segment", Flows: len(rep.Flows), Estimates: agg.N()}}
	return rep
}
