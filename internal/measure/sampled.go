package measure

import (
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// DefaultSampleRate is the sampling baseline's default 1-in-N rate,
// NetFlow's classic 1-in-32 sampled mode.
const DefaultSampleRate = 32

// sampleRecordBytes is one exported timestamp sample: a 64-bit packet
// digest plus a 64-bit timestamp.
const sampleRecordBytes = 16

// Sampled is the NetFlow-style packet-sampling baseline: both measurement
// points sample the same deterministic 1-in-N subset of packets (hashing
// the invariant packet ID, as trajectory sampling does), timestamp them,
// and matched pairs yield per-packet delays folded into per-flow means.
// Accuracy degrades with the sampling rate — a flow shorter than N packets
// usually contributes no estimate at all, which is exactly the blind spot
// the paper holds against sampled NetFlow (§5).
type Sampled struct {
	pairCore
	rate uint64
	seed uint64
}

// NewSampled builds the baseline at a 1-in-rate sampling rate (rate < 1
// uses DefaultSampleRate). seed keys the sampling hash; both taps share it
// by construction.
func NewSampled(rate int, seed int64) *Sampled {
	if rate < 1 {
		rate = DefaultSampleRate
	}
	return &Sampled{pairCore: newPairCore(), rate: uint64(rate), seed: uint64(seed)}
}

// Name implements Estimator.
func (s *Sampled) Name() string { return "netflow-sample" }

// sampled decides deterministically whether a packet is in the sampled
// subset — the same decision at both measurement points.
func (s *Sampled) sampled(id uint64) bool {
	return s.rate == 1 || trace.SplitMix64(id^s.seed)%s.rate == 0
}

// TapStart implements StartTapper: sampled packets are timestamped on
// entry.
func (s *Sampled) TapStart(p *packet.Packet, now simtime.Time) {
	if s.sampled(p.ID) {
		s.start(p.ID, now)
	}
}

// Tap implements Estimator: a sampled packet seen at both points yields one
// delay sample for its flow.
func (s *Sampled) Tap(p *packet.Packet, now simtime.Time) {
	if s.sampled(p.ID) {
		s.end(p, now)
	}
}

// Finalize implements Estimator.
func (s *Sampled) Finalize() Report { return s.finalize(s.Name()) }
