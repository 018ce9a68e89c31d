package fleet

import (
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// SetMaxBody lowers the per-instance response limit (maxInstanceBody) so a
// test can run a body past it without streaming 64 MB.
func (f *Frontend) SetMaxBody(n int64) { f.maxBody = n }

// QueryStages returns what a merged-table query runs after its fan-out,
// over already-fetched binary /snapshot bodies (one per instance) and in one
// set of query buffers reused across calls: the per-instance decode the
// fetch goroutines run (here one instance after another), the merge, and
// then the /flows render into the query's parts, concatenated, or the
// /comparison fold — the handlers minus the response write.
func (f *Frontend) QueryStages(bodies [][]byte) (flows func() ([]byte, error), compare func() (measure.Comparison, error)) {
	q := f.takeBuffers()
	fetched := make([]fetch, len(bodies))
	decodeMerge := func() ([]collector.FlowAgg, error) {
		for i, b := range bodies {
			fetched[i] = fetch{instance: f.cfg.Instances[i], body: b, contentType: queryapi.SnapshotContentType}
			f.decode(q, i, &fetched[i])
		}
		return f.merge(q, fetched, time.Now())
	}
	var body appendWriter
	flows = func() ([]byte, error) {
		aggs, err := decodeMerge()
		if err != nil {
			return nil, err
		}
		if err := q.flows.Render(aggs, -1); err != nil {
			return nil, err
		}
		body = body[:0]
		_, _ = q.flows.WriteTo(&body)
		return body, nil
	}
	compare = func() (measure.Comparison, error) {
		aggs, err := decodeMerge()
		if err != nil {
			return measure.Comparison{}, err
		}
		var cmp measure.Comparison
		cmp, q.errs = measure.CompareFlowAggsIn("rli", aggs, q.errs)
		return cmp, nil
	}
	return flows, compare
}

// appendWriter collects what is written to it, in storage reused across
// calls.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
