package measure

import (
	"time"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// flowRecordBytes is one exported flow record's size, the NetFlow v5
// ballpark: key (13B padded), two timestamps, packet and byte counters.
const flowRecordBytes = 48

// DefaultQuantize is the default flow-record timestamp resolution. NetFlow
// records carry millisecond (sysUpTime) stamps — the principal reason the
// two-sample estimator is crude for microsecond data-center latencies; the
// comparison models the same handicap. Zero disables quantization
// (idealized hardware-stamped records).
const DefaultQuantize = time.Millisecond

// Multiflow is the estimator of Lee et al. (INFOCOM 2010, the paper's
// reference [12]): per-flow latency from only the two timestamps NetFlow
// already keeps. Both measurement points meter every flow
// (internal/netflow); a flow's delay estimate is the average of its
// first-packet delay and its last-packet delay,
//
//	est = ((first_down - first_up) + (last_down - last_up)) / 2
//
// It is the "crude" per-flow baseline RLI improves on: two samples per flow
// regardless of flow length, no visibility inside the flow.
type Multiflow struct {
	up, down *netflow.Meter
	quantize time.Duration
}

// NewMultiflow builds the estimator; quantize < 0 selects exact timestamps,
// 0 the DefaultQuantize millisecond resolution.
func NewMultiflow(quantize time.Duration) *Multiflow {
	if quantize == 0 {
		quantize = DefaultQuantize
	}
	if quantize < 0 {
		quantize = 0
	}
	return &Multiflow{
		up:       netflow.NewMeter(),
		down:     netflow.NewMeter(),
		quantize: quantize,
	}
}

// Name implements Estimator.
func (m *Multiflow) Name() string { return "multiflow" }

// TapStart implements StartTapper.
func (m *Multiflow) TapStart(p *packet.Packet, now simtime.Time) {
	m.up.Observe(p.Key, p.Size, now)
}

// Tap implements Estimator.
func (m *Multiflow) Tap(p *packet.Packet, now simtime.Time) {
	m.down.Observe(p.Key, p.Size, now)
}

// Up returns the segment-start meter, live.
func (m *Multiflow) Up() *netflow.Meter { return m.up }

// Down returns the segment-end meter, live: a harness that exports the
// segment end's flow records reads them here instead of metering the same
// packets a second time.
func (m *Multiflow) Down() *netflow.Meter { return m.down }

// Finalize implements Estimator. Both meters' key-sorted runs pair by a
// merge-join, so the estimates come out in key order; the segment end's run
// is the one the meter shares with any other reader of its records.
func (m *Multiflow) Finalize() Report {
	flows := twoSampleEstimates(m.up.Sorted(), m.down.Sorted(), m.quantize)
	// Every open record at either point is state the exporter carries,
	// whether or not the flow matched across points.
	exported := uint64(m.up.Active() + m.down.Active())
	return Report{Estimator: m.Name(), Overhead: Overhead{
		SampledRecords: exported,
		SampledBytes:   exported * flowRecordBytes,
	}}.WithFlows(flows)
}

// twoSampleEstimates pairs upstream and downstream records, each run sorted
// by flow key, with their timestamps rounded to the nearest multiple of
// quantize (none when quantize is 0). Flows seen at only one point are
// skipped; flows whose packet counts differ (loss crossed the flow, so
// first/last may not be the same packets) are still estimated, as the
// original estimator does. Each estimate weighs in the aggregate by the
// flow's downstream packets: two timestamps stand for the whole flow.
func twoSampleEstimates(up, down []netflow.Record, quantize time.Duration) []FlowEstimate {
	round := func(t simtime.Time) simtime.Time {
		if quantize <= 0 {
			return t
		}
		step := int64(quantize)
		return simtime.Time((int64(t) + step/2) / step * step)
	}
	out := make([]FlowEstimate, 0, min(len(up), len(down)))
	i := 0
	for _, d := range down {
		for i < len(up) && up[i].Key.Compare(d.Key) < 0 {
			i++
		}
		if i == len(up) {
			break
		}
		if u := &up[i]; u.Key == d.Key {
			// Two timestamps per flow regardless of length — N documents that.
			mean := (round(d.First).Sub(round(u.First)) + round(d.Last).Sub(round(u.Last))) / 2
			out = append(out, FlowEstimate{Key: d.Key, Mean: mean, N: 2, Weight: int64(d.Packets)})
		}
	}
	return out
}
