package measure

import (
	"sort"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/trace"
)

// Secret-key hash sampling vs the predictable baseline it replaces.
//
// A compromised router that wants to hide added latency only has to spare
// the packets it predicts will be measured: RLI reference packets are
// identifiable on the wire, and a periodic sampler's subset (every Nth
// packet ID) is computable from headers alone. ShouldSample closes that
// hole — the sample set is a keyed hash of the invariant packet ID, so
// without the secret key the router cannot do better than chance at
// predicting membership, and it must decide whether to delay a packet
// BEFORE the measurement points reveal anything. HashSampled (registered as
// "hash-sample") builds the pair-matching estimator on that decision;
// PeriodicSampled ("periodic-sample") is the naive header-predictable
// baseline the adversarial-delay scenario defeats.

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
	rep := Report{Estimator: name, Overhead: c.overhead}
	keys := make([]packet.FlowKey, 0, len(c.flows))
	for key := range c.flows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
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

// HashSampled is the secret-key sampling estimator: the same pair-matching
// mechanism as Sampled, but membership comes from ShouldSample's keyed hash
// instead of a seed both parties treat as public configuration. Because a
// router cannot evaluate the hash without the key, it cannot selectively
// delay only unmeasured packets — the property the adversarial-delay
// scenario scores.
type HashSampled struct {
	pairCore
	key  uint64
	rate uint64
}

// NewHashSampled builds the estimator at a 1-in-rate sampling rate
// (rate < 1 uses DefaultSampleRate) with the given secret key.
func NewHashSampled(rate int, key uint64) *HashSampled {
	if rate < 1 {
		rate = DefaultSampleRate
	}
	return &HashSampled{pairCore: newPairCore(), key: key, rate: uint64(rate)}
}

// Name implements Estimator.
func (h *HashSampled) Name() string { return "hash-sample" }

// TapStart implements StartTapper: keyed-sampled packets are timestamped on
// entry.
func (h *HashSampled) TapStart(p *packet.Packet, now simtime.Time) {
	if !ShouldSample(h.key, p.ID, h.rate) {
		return
	}
	h.start(p.ID, now)
}

// Tap implements Estimator: a keyed-sampled packet seen at both points
// yields one delay sample for its flow.
func (h *HashSampled) Tap(p *packet.Packet, now simtime.Time) {
	if !ShouldSample(h.key, p.ID, h.rate) {
		return
	}
	h.end(p, now)
}

// Finalize implements Estimator.
func (h *HashSampled) Finalize() Report { return h.finalize(h.Name()) }

// PeriodicSampled is the naive count-based sampling baseline: every Nth
// packet ID. Its subset is computable from packet headers alone, which is
// exactly what a delay-gaming router exploits — it exists to quantify that
// failure next to hash-sample's detection.
type PeriodicSampled struct {
	pairCore
	rate uint64
}

// NewPeriodicSampled builds the baseline at a 1-in-rate sampling rate
// (rate < 1 uses DefaultSampleRate).
func NewPeriodicSampled(rate int) *PeriodicSampled {
	if rate < 1 {
		rate = DefaultSampleRate
	}
	return &PeriodicSampled{pairCore: newPairCore(), rate: uint64(rate)}
}

// Name implements Estimator.
func (s *PeriodicSampled) Name() string { return "periodic-sample" }

// PeriodicSampled's membership test — exported logic in one place so the
// adversary model in internal/scenario predicts with exactly the same rule.
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

// TapStart implements StartTapper.
func (s *PeriodicSampled) TapStart(p *packet.Packet, now simtime.Time) {
	if !periodicSampled(p.ID, s.rate) {
		return
	}
	s.start(p.ID, now)
}

// Tap implements Estimator.
func (s *PeriodicSampled) Tap(p *packet.Packet, now simtime.Time) {
	if !periodicSampled(p.ID, s.rate) {
		return
	}
	s.end(p, now)
}

// Finalize implements Estimator.
func (s *PeriodicSampled) Finalize() Report { return s.finalize(s.Name()) }
