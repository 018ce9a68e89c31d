package scenario

import (
	"sort"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Trace is one scenario run's captured export stream: exactly what the
// run's measurement instruments shipped (or would ship) to a collection
// service, in production order. It is the replay unit of cmd/loadgen — a
// client can re-encode Samples and Records as wire frames and drive a
// running rlird with real scenario traffic at any rate — and the
// equivalence anchor for the service tests: streaming Samples into any
// collector yields per-flow aggregates bit-identical to Result.Fleet,
// because they are the same samples in the same per-flow order.
type Trace struct {
	// Scenario and Seed identify the run that produced the capture.
	Scenario string
	Seed     int64
	// Samples is every per-packet estimate the RLI receivers streamed into
	// the run's collector plane, in estimate order (per-flow order is what
	// collector determinism depends on; Samples preserves it exactly).
	Samples []collector.Sample
	// Records is the NetFlow exporter view of the measured segment's
	// delivered regular traffic: one record per flow observed at the
	// segment-end measurement points, sorted by flow key.
	Records []netflow.Record
	// Result is the run's full batch outcome, for comparing a replay
	// consumer against the engine that produced the stream.
	Result *Result
}

// Export runs the scenario once, capturing its export stream alongside the
// normal result. The run is bit-identical to RunSeed(spec, seed) — capture
// taps only copy what existing hooks already observe.
func Export(spec Spec, seed int64) (*Trace, error) {
	cap := newCapture()
	res, err := runSeed(spec, seed, cap)
	if err != nil {
		return nil, err
	}
	return cap.finish(spec.Name, seed, res), nil
}

// capture accumulates the export stream during a run. A nil *capture is
// valid and records nothing, so the engine's hot-path hooks call its
// methods unconditionally.
type capture struct {
	samples []collector.Sample
	meter   *netflow.Meter
}

func newCapture() *capture {
	return &capture{meter: netflow.NewMeter()}
}

// addSample records one streamed estimate.
func (c *capture) addSample(key packet.FlowKey, est, truth time.Duration) {
	if c == nil {
		return
	}
	c.samples = append(c.samples, collector.Sample{Key: key, Est: est, True: truth})
}

// observe meters one delivered regular packet at a segment-end point.
func (c *capture) observe(p *packet.Packet, now simtime.Time) {
	if c == nil {
		return
	}
	c.meter.Observe(p.Key, p.Size, now)
}

// finish flushes the meter and assembles the trace. Records are sorted by
// flow key: the meter's map iteration order must not leak into the
// deterministic artifact.
func (c *capture) finish(name string, seed int64, res *Result) *Trace {
	recs := c.meter.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key.Less(recs[j].Key) })
	return &Trace{Scenario: name, Seed: seed, Samples: c.samples, Records: recs, Result: res}
}
