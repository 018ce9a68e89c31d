package fleet

import (
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// SetMaxBody lowers the per-instance response limit (maxInstanceBody) so a
// test can run a body past it without streaming 64 MB.
func (f *Frontend) SetMaxBody(n int64) { f.maxBody = n }

// QueryStages returns what a merged-table query runs after its fan-out,
// over already-fetched binary /snapshot bodies (one per instance) and in one
// set of query buffers reused across calls: decode, merge and the /flows
// row encoder, or decode, merge and the /comparison fold — the handlers
// minus the response write.
func (f *Frontend) QueryStages(bodies [][]byte) (flows func() ([]byte, error), compare func() (measure.Comparison, error)) {
	q := f.takeBuffers()
	fetched := make([]fetch, len(bodies))
	for i, b := range bodies {
		fetched[i] = fetch{instance: f.cfg.Instances[i], body: b, contentType: queryapi.SnapshotContentType}
	}
	flows = func() ([]byte, error) {
		aggs, err := f.decodeMerge(q, fetched, time.Now())
		if err != nil {
			return nil, err
		}
		q.body, err = queryapi.AppendFlowRows(q.body[:0], aggs, -1)
		return q.body, err
	}
	compare = func() (measure.Comparison, error) {
		aggs, err := f.decodeMerge(q, fetched, time.Now())
		if err != nil {
			return measure.Comparison{}, err
		}
		var cmp measure.Comparison
		cmp, q.errs = measure.CompareFlowAggsIn("rli", aggs, q.errs)
		return cmp, nil
	}
	return flows, compare
}
