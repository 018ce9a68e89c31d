package scenario

import (
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
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

	// taps and work are the run's hand-offs with its passive consumer and
	// its workload producers. They depend on thread scheduling, so they are
	// reported by the export benchmark and kept out of Result.
	taps, work pipeStats
}

// Waits is how often, and for how long, the simulator waited on its
// neighbours during one run: on the passive consumer (taps) and on the
// workload producers (work). Thread scheduling decides both, so they are
// reported beside Result, not in it.
type Waits struct {
	TapBlocked, WorkBlocked int
	TapWait, WorkWait       time.Duration
}

// Waits returns the run's waits on its neighbours.
func (t *Trace) Waits() Waits {
	return Waits{TapBlocked: t.taps.blocked, WorkBlocked: t.work.blocked, TapWait: t.taps.wait, WorkWait: t.work.wait}
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
	// blocks holds the streamed estimates in fixed-size blocks, so a run's
	// samples are allocated once, not re-copied by every append regrowth;
	// seal joins them into samples.
	blocks     [][]collector.Sample
	samples    []collector.Sample
	meter      *netflow.Meter   // the segment end's flow meter, set by the plane
	records    []netflow.Record // the meter's records, sorted by seal
	taps, work pipeStats        // the run's hand-offs, set by harvest
}

// sampleBlock is the capture's block size in samples (32 KiB): small beside
// a 0.2 s all-pairs run's ≈ 38 000 samples, so the blocks and the joined
// slice together allocate about twice the samples' size.
const sampleBlock = 1024

func newCapture() *capture { return &capture{} }

// addSample records one streamed estimate.
func (c *capture) addSample(key packet.FlowKey, est, truth time.Duration) {
	if c == nil {
		return
	}
	n := len(c.blocks)
	if n == 0 || len(c.blocks[n-1]) == sampleBlock {
		c.blocks = append(c.blocks, make([]collector.Sample, 0, sampleBlock))
		n++
	}
	c.blocks[n-1] = append(c.blocks[n-1], collector.Sample{Key: key, Est: est, True: truth})
}

// seal joins the streamed samples and takes the meter's records sorted by
// flow key — the run the meter shares with the Multiflow baseline's
// Finalize — so its map iteration order does not leak into the deterministic
// artifact. The plane's fold calls it once the run has drained.
func (c *capture) seal() {
	if c == nil {
		return
	}
	c.samples = slices.Concat(c.blocks...)
	c.blocks = nil
	c.records = c.meter.Sorted()
}

// finish assembles the trace from the sealed capture and the run's result.
func (c *capture) finish(name string, seed int64, res *Result) *Trace {
	return &Trace{Scenario: name, Seed: seed, Samples: c.samples, Records: c.records, Result: res, taps: c.taps, work: c.work}
}
