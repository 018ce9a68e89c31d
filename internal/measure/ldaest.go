package measure

import (
	"github.com/netmeasure/rlir/internal/lda"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// ldaBucketBytes is one sketch bucket's export size: a 64-bit timestamp sum
// plus a 64-bit packet counter.
const ldaBucketBytes = 16

// LDAEstimator adapts the Lossy Difference Aggregator (internal/lda) to the
// estimator layer: mirrored sender/receiver sketches fed from the segment
// start and end taps, extracted into an aggregate mean-delay estimate at
// Finalize. LDA is deliberately aggregate-only — its comparison row has no
// per-flow error, which is the paper's point (§5: "only provides aggregate
// measurements").
type LDAEstimator struct {
	sender, receiver *lda.LDA
	cfg              lda.Config
}

// NewLDA builds mirrored sketches from cfg (zero value: lda.DefaultConfig).
func NewLDA(cfg lda.Config) *LDAEstimator {
	if cfg == (lda.Config{}) {
		cfg = lda.DefaultConfig()
	}
	return &LDAEstimator{sender: lda.New(cfg), receiver: lda.New(cfg), cfg: cfg}
}

// Name implements Estimator.
func (l *LDAEstimator) Name() string { return "lda" }

// TapStart implements StartTapper: the sender-side sketch records every
// packet entering the segment.
func (l *LDAEstimator) TapStart(p *packet.Packet, now simtime.Time) {
	l.sender.Record(p.ID, now)
}

// Tap implements Estimator: the receiver-side sketch records every packet
// leaving the segment.
func (l *LDAEstimator) Tap(p *packet.Packet, now simtime.Time) {
	l.receiver.Record(p.ID, now)
}

// Finalize implements Estimator.
func (l *LDAEstimator) Finalize() Report {
	est, err := lda.Extract(l.sender, l.receiver)
	if err != nil {
		// Both sketches are built from one config; a mismatch is a
		// programming error, not a runtime condition.
		panic(err)
	}
	buckets := uint64(2 * l.cfg.Banks * l.cfg.Rows) // both sketch halves export
	return Report{
		Estimator:  "lda",
		AggMean:    est.MeanDelay,
		AggSamples: int64(est.UsablePackets),
		Overhead: Overhead{
			SampledRecords: buckets,
			SampledBytes:   buckets * ldaBucketBytes,
		},
	}
}

// Extract exposes the raw LDA estimate (sketch health, loss estimate) for
// harnesses that report more than the comparison row.
func (l *LDAEstimator) Extract() (lda.Estimate, error) {
	return lda.Extract(l.sender, l.receiver)
}
