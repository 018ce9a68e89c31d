package measure

import (
	"slices"
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

// Down returns the segment-end meter, live: a harness that exports the
// segment end's flow records reads them here instead of metering the same
// packets a second time.
func (m *Multiflow) Down() *netflow.Meter { return m.down }

// Finalize implements Estimator.
func (m *Multiflow) Finalize() Report {
	ests := twoSampleEstimates(
		m.quantizeRecords(m.up.Snapshot()),
		m.quantizeRecords(m.down.Snapshot()))
	// Meter snapshots iterate maps; sort for a deterministic report.
	slices.SortFunc(ests, func(a, b twoSample) int { return a.Key.Compare(b.Key) })
	rep := Report{Estimator: m.Name(), Flows: make([]FlowEstimate, 0, len(ests))}
	var aggW float64
	var aggN int64
	for _, e := range ests {
		// Two timestamps per flow regardless of length — N documents that.
		rep.Flows = append(rep.Flows, FlowEstimate{Key: e.Key, Mean: e.Mean, N: 2})
		aggW += float64(e.Mean) * float64(e.Packets)
		aggN += int64(e.Packets)
	}
	if aggN > 0 {
		rep.AggMean = time.Duration(aggW / float64(aggN))
	}
	rep.AggSamples = aggN
	// Every open record at either point is state the exporter carries,
	// whether or not the flow matched across points.
	exported := uint64(m.up.Active() + m.down.Active())
	rep.Overhead = Overhead{
		SampledRecords: exported,
		SampledBytes:   exported * flowRecordBytes,
	}
	rep.Routers = []RouterReport{{Router: "segment", Flows: len(rep.Flows), Estimates: int64(len(rep.Flows)) * 2}}
	return rep
}

func (m *Multiflow) quantizeRecords(recs []netflow.Record) []netflow.Record {
	if m.quantize <= 0 {
		return recs
	}
	step := int64(m.quantize)
	for i := range recs {
		recs[i].First = simtime.Time((int64(recs[i].First) + step/2) / step * step)
		recs[i].Last = simtime.Time((int64(recs[i].Last) + step/2) / step * step)
	}
	return recs
}

// twoSample is one flow's two-timestamp delay estimate and its downstream
// packet count (the aggregate's weight).
type twoSample struct {
	Key     packet.FlowKey
	Mean    time.Duration
	Packets uint64
}

// twoSampleEstimates pairs upstream and downstream records by flow key.
// Flows seen at only one point are skipped; flows whose packet counts differ
// (loss crossed the flow, so first/last may not be the same packets) are
// still estimated, as the original estimator does.
func twoSampleEstimates(up, down []netflow.Record) []twoSample {
	byKey := make(map[packet.FlowKey]netflow.Record, len(up))
	for _, r := range up {
		byKey[r.Key] = r
	}
	out := make([]twoSample, 0, len(down))
	for _, d := range down {
		u, ok := byKey[d.Key]
		if !ok {
			continue
		}
		out = append(out, twoSample{
			Key:     d.Key,
			Mean:    (d.First.Sub(u.First) + d.Last.Sub(u.Last)) / 2,
			Packets: d.Packets,
		})
	}
	return out
}
