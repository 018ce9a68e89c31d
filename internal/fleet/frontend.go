package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// FrontendConfig configures a scatter-gather Frontend.
type FrontendConfig struct {
	// Instances are the fleet's query-API base URLs (one rlird each), e.g.
	// "http://127.0.0.1:7172". Required, and order defines instance
	// numbering in reports.
	Instances []string
	// Timeout bounds each fan-out: every instance request of one incoming
	// query shares this budget (default 5s).
	Timeout time.Duration
	// Client issues the instance requests (default http.DefaultClient plus
	// the fan-out timeout).
	Client *http.Client
}

// Frontend answers the rlird query API for a whole fleet: every request
// scatter-gathers the partitioned instances with a bounded timeout and
// merges their answers. The merge is exact, not approximate — /flows and
// /comparison are computed from the instances' raw /snapshot state through
// collector.Merge's k-way merge (collector.Merger, into reused storage) and
// the shared queryapi renderers, so a fleet-of-N
// response is field-for-field what a single rlird holding the whole stream
// would serve. Instances that fail to answer are skipped (degraded mode,
// visible in /healthz and /metrics); only a fully-unreachable fleet turns
// into an error status.
type Frontend struct {
	cfg     FrontendConfig
	client  *http.Client
	maxBody int64 // maxInstanceBody; a field only so tests reach the limit with kilobytes
	start   time.Time
	queries atomic.Uint64
	gErrs   atomic.Uint64

	// The front-end's own price list for a merged-table query (/flows,
	// /comparison): nanoseconds spent per stage and snapshot bytes fetched.
	// Plain counters, so pricing a query allocates nothing.
	stageNs   [numStages]atomic.Int64
	snapBytes atomic.Uint64

	// bufs are idle merged-table query buffers, kept for the next query.
	bufs *queryapi.FreeList[queryBuffers]
}

// queryBuffers is the storage one merged-table query reads, decodes, merges
// and renders into. A query takes a set off the front-end's free list and
// hands it back once its response is written, so in steady state a query
// allocates nothing per row.
type queryBuffers struct {
	bodies [][]byte                 // each instance's /snapshot body
	tables []queryapi.SnapshotTable // each instance's decoded table
	parts  [][]collector.FlowAgg    // the decoded tables that merge
	merged collector.Merger
	flows  queryapi.FlowsBody // the rendered /flows
	errs   []float64          // /comparison's per-flow errors
}

// bytes is the storage q holds, the size the free list bounds.
func (q *queryBuffers) bytes() int {
	n := q.merged.Bytes() + q.flows.Size() + 8*cap(q.errs)
	for i := range q.tables {
		n += cap(q.bodies[i]) + q.tables[i].Bytes()
	}
	return n
}

// Idle query buffers the front-end keeps: at most maxIdleQueryBuffers sets,
// none over maxQueryBufferBytes, so between queries it retains at most
// 64 MB — and nothing once a garbage collection finds them idle. The
// benchmark's read_path query (two instances, 2 266 flows) takes a set of
// about 3 MB; a set over the limit serves its query and is dropped.
const (
	maxIdleQueryBuffers = 2
	maxQueryBufferBytes = 32 << 20
)

// takeBuffers takes an idle set of query buffers, or sizes a new one for
// the fleet.
func (f *Frontend) takeBuffers() *queryBuffers {
	q := f.bufs.Get()
	if q.tables == nil {
		q.bodies = make([][]byte, len(f.cfg.Instances))
		q.tables = make([]queryapi.SnapshotTable, len(f.cfg.Instances))
	}
	return q
}

// The stages of a merged-table query, in the order they run. They do not
// overlap, so their sum is at most the handler's wall time. Each body is
// decoded on its fetch goroutine as soon as it is read, so the decoding of
// all but the slowest body overlaps the fan-out and is priced as fetch.
const (
	stageFetch  = iota // fan-out to /snapshot until the slowest body is read
	stageDecode        // decoding left once it is: bodies to per-instance aggregates, version-checked
	stageMerge         // collector.Merge of the per-instance tables
	stageRender        // the encoded rows (or the comparison) and the response write
	numStages
)

var stageNames = [numStages]string{"fetch", "decode", "merge", "render"}

// since adds the time elapsed from t0 to the stage's counter and returns
// now, the next stage's t0.
func (f *Frontend) since(stage int, t0 time.Time) time.Time {
	now := time.Now()
	f.stageNs[stage].Add(int64(now.Sub(t0)))
	return now
}

// NewFrontend validates the instance URLs and builds the front-end.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Instances) == 0 {
		return nil, errors.New("fleet: no instances")
	}
	for _, in := range cfg.Instances {
		u, err := url.Parse(in)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad instance URL %q: %w", in, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: bad instance URL %q (want http[s]://host:port)", in)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &Frontend{
		cfg: cfg, client: client, maxBody: maxInstanceBody, start: time.Now(),
		bufs: queryapi.NewFreeList(maxIdleQueryBuffers, maxQueryBufferBytes, (*queryBuffers).bytes),
	}, nil
}

// Instances returns the configured instance count.
func (f *Frontend) Instances() int { return len(f.cfg.Instances) }

// fetch is one instance's response to a fan-out: the body and the
// Content-Type it came labelled with, or the error that kept it out of the
// answer, and when the fetch ended.
type fetch struct {
	instance    string
	body        []byte
	contentType string
	err         error
	read        time.Time // when the body was read, or the fetch failed
}

// gather fans path out to every instance under one Timeout and returns the
// responses in instance order. A non-empty accept is sent as the requests'
// Accept header. Instance i's body is read into bufs[i]'s storage when bufs
// is not nil, and land, when not nil, is called with each body on its
// instance's goroutine as soon as it is read; an error it sets counts as
// that instance's gather error.
func (f *Frontend) gather(ctx context.Context, path, accept string, bufs [][]byte, land func(i int, g *fetch)) []fetch {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	out := make([]fetch, len(f.cfg.Instances))
	var wg sync.WaitGroup
	for i, in := range f.cfg.Instances {
		wg.Add(1)
		go func(i int, in string) {
			defer wg.Done()
			g := &out[i]
			*g = fetch{instance: in}
			g.body, g.contentType, g.err = f.get(ctx, in, path, accept, bufs, i)
			g.read = time.Now()
			if g.err == nil && land != nil {
				land(i, g)
			}
		}(i, in)
	}
	wg.Wait()
	for _, g := range out {
		if g.err != nil {
			f.gErrs.Add(1)
		}
	}
	return out
}

// get is one instance's request of a fan-out: its body, read into bufs[i]'s
// storage when bufs is not nil, and the Content-Type it came labelled with.
func (f *Frontend) get(ctx context.Context, in, path, accept string, bufs [][]byte, i int) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(in, "/")+path, nil)
	if err != nil {
		return nil, "", err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	var buf []byte
	if bufs != nil {
		buf = bufs[i]
	}
	body, err := readBody(resp, f.maxBody, buf)
	if err != nil {
		return nil, "", fmt.Errorf("%s%s: %w", in, path, err)
	}
	// /healthz deliberately answers 503 while draining with a valid body;
	// anything else non-2xx is a failure.
	if resp.StatusCode >= 300 && path != "/healthz" {
		return nil, "", fmt.Errorf("%s%s: %s", in, path, resp.Status)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// maxInstanceBody is the most the front-end reads of one instance's
// response; a body that runs past it is that instance's gather error. The
// binary /snapshot costs about 110 bytes per flow (2 x 121 kB for the
// benchmark's 2 266 rows), so 64 MB carries some 600 000 individually
// tracked flows per instance — past that an rlird is meant to run capped
// (-max-flows, the rollup tier keeps the samples) or the fleet to gain an
// instance. It is a constant, not a
// setting: what it guards against is an instance URL that points at
// something that is not an rlird, and one query's memory is then at most
// instances x this (twice it, transiently, while the buffer of a body that
// declared no length doubles).
const maxInstanceBody = 64 << 20

// readBody reads an instance's response body whole, up to limit bytes, into
// buf's storage. When the instance declared a Content-Length (rlird does on
// /snapshot) the buffer is grown at most once, for it — io.ReadAll would
// regrow from 512 bytes, copying a 120 kB snapshot body about four times
// over — with bytes.MinRead to spare so the read that finds EOF does not
// regrow it either; a declared length over the limit is refused before a
// byte is read. A body that stops short of its declared length is the
// transport's error.
func readBody(resp *http.Response, limit int64, buf []byte) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", resp.ContentLength, limit)
	}
	b := bytes.NewBuffer(buf[:0])
	if n := resp.ContentLength; n > 0 {
		b.Grow(int(n) + bytes.MinRead)
	}
	// One byte past the limit tells a body that fits from one that does not.
	if _, err := b.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, err
	}
	if int64(b.Len()) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte limit", limit)
	}
	return b.Bytes(), nil
}

// mergedTable is the exact fleet-wide flow table: every reachable
// instance's raw flow-table state, gathered, decoded and merged in q's
// storage, each body decoded on its fetch goroutine as soon as it is read
// (so one instance's decode runs beside another's fetch and decode), the
// merge once every body is in. Flow-disjoint partitioning makes the result bit-identical to a
// single collector over the whole stream; a flow two instances share folds
// earliest instance first, as collector.Merge folds it.
//
// The fan-out asks for the binary snapshot rendering and reads nothing
// else: a body labelled with any other Content-Type (an instance URL that
// points at something that is not a current rlird) is that instance's
// gather error. An instance whose snapshot schema version differs from this
// binary's is rejected by the decoder: merging a stale instance would
// silently drop its sketch tier rather than fail. An instance that fails to
// answer or decode is skipped; the error is the first such failure when no
// instance is left.
func (f *Frontend) mergedTable(ctx context.Context, q *queryBuffers) ([]collector.FlowAgg, error) {
	t := time.Now()
	fetched := f.gather(ctx, "/snapshot", queryapi.SnapshotContentType, q.bodies, func(i int, g *fetch) { f.decode(q, i, g) })
	read := t // when the slowest body was read
	for _, g := range fetched {
		if g.read.After(read) {
			read = g.read
		}
	}
	f.stageNs[stageFetch].Add(int64(read.Sub(t)))
	return f.merge(q, fetched, f.since(stageDecode, read))
}

// decode decodes instance i's fetched /snapshot body into its table in q;
// only the binary rendering is accepted, and a body that does not decode is
// the fetch's error.
func (f *Frontend) decode(q *queryBuffers, i int, g *fetch) {
	q.bodies[i] = g.body // the storage it was read into, grown or not
	f.snapBytes.Add(uint64(len(g.body)))
	if g.contentType != queryapi.SnapshotContentType {
		g.err = fmt.Errorf("%s/snapshot: Content-Type %q, want %q", g.instance, g.contentType, queryapi.SnapshotContentType)
	} else if err := q.tables[i].Decode(g.body); err != nil {
		g.err = fmt.Errorf("%s/snapshot: %w", g.instance, err)
	}
}

// merge is mergedTable after the decoding, from t on: the decoded tables
// merged by moving their rows into q's merged table.
func (f *Frontend) merge(q *queryBuffers, fetched []fetch, t time.Time) ([]collector.FlowAgg, error) {
	q.parts = q.parts[:0]
	var firstErr error
	for i, g := range fetched {
		if g.err == nil {
			q.parts = append(q.parts, q.tables[i].Aggs)
		} else if firstErr == nil {
			firstErr = g.err
		}
	}
	if len(q.parts) == 0 {
		return nil, fmt.Errorf("no instance reachable: %v", firstErr)
	}
	merged := q.merged.Move(q.parts...)
	f.since(stageMerge, t)
	return merged, nil
}

// Handler returns the fleet query API: the same five endpoints a single
// rlird serves, answered for the whole fleet.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/flows", f.handleFlows)
	mux.HandleFunc("/routers", f.handleRouters)
	mux.HandleFunc("/rollup", f.handleRollup)
	mux.HandleFunc("/comparison", f.handleComparison)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

// handleFlows serves the merged per-flow table. ?limit=N is validated
// before the fan-out, so a bad request costs the fleet nothing.
func (f *Frontend) handleFlows(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	limit, err := queryapi.FlowLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := f.takeBuffers()
	defer f.bufs.Put(q)
	aggs, err := f.mergedTable(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	t := time.Now()
	queryapi.WriteFlows(w, aggs, limit, &q.flows)
	f.since(stageRender, t)
}

func (f *Frontend) handleComparison(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	q := f.takeBuffers()
	defer f.bufs.Put(q)
	aggs, err := f.mergedTable(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	t := time.Now()
	var cmp measure.Comparison
	cmp, q.errs = measure.CompareFlowAggsIn("rli", aggs, q.errs)
	queryapi.WriteJSON(w, http.StatusOK, []queryapi.ComparisonJSON{queryapi.ComparisonRow(cmp)})
	f.since(stageRender, t)
}

// gatherJSON is /routers' and /rollup's gather: it fans path out, decodes
// each answering instance's body as a T and annotates it with its instance
// URL. When no instance answers it writes the 502 itself and returns false.
func gatherJSON[T any](f *Frontend, w http.ResponseWriter, r *http.Request, path string, annotate func(part *T, instance string)) ([]T, bool) {
	f.queries.Add(1)
	var parts []T
	var firstErr error
	for _, g := range f.gather(r.Context(), path, "", nil, nil) {
		var part T
		err := g.err
		if err == nil {
			if err = json.Unmarshal(g.body, &part); err != nil {
				err = fmt.Errorf("%s%s: %w", g.instance, path, err)
				f.gErrs.Add(1)
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		annotate(&part, g.instance)
		parts = append(parts, part)
	}
	if parts == nil {
		http.Error(w, fmt.Sprintf("no instance reachable: %v", firstErr), http.StatusBadGateway)
		return nil, false
	}
	return parts, true
}

// handleRollup gathers each instance's /rollup and returns the per-instance
// views annotated with their instance URL, like /routers. The rollup tiers
// are NOT cross-instance merged: which flows a bounded instance evicted
// depends on its own arrival order and caps, so per-instance rollups are an
// operational view, not part of the exact-merge surface (/flows,
// /comparison — those merge live per-flow state, which stays exact).
func (f *Frontend) handleRollup(w http.ResponseWriter, r *http.Request) {
	rows, ok := gatherJSON(f, w, r, "/rollup", func(part *queryapi.RollupJSON, in string) { part.Instance = in })
	if ok {
		queryapi.WriteJSON(w, http.StatusOK, rows)
	}
}

func (f *Frontend) handleRouters(w http.ResponseWriter, r *http.Request) {
	parts, ok := gatherJSON(f, w, r, "/routers", func(part *[]queryapi.RouterJSON, in string) {
		for i := range *part {
			(*part)[i].Instance = in
		}
	})
	if !ok {
		return
	}
	rows := []queryapi.RouterJSON{}
	for _, part := range parts {
		rows = append(rows, part...)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Router != rows[j].Router {
			return rows[i].Router < rows[j].Router
		}
		return rows[i].Instance < rows[j].Instance
	})
	queryapi.WriteJSON(w, http.StatusOK, rows)
}

// HealthJSON is the fleet /healthz response: the aggregate plus one row per
// instance. Distinct from a single instance's queryapi.HealthJSON — a fleet
// front-end's own health is "how much of the fleet answers".
type HealthJSON struct {
	// Status is "ok" (every instance answered ok), "degraded" (some did),
	// or "down" (none did — served with a 503). An instance that answers
	// "draining" or "stopped" is reachable but not ok.
	Status      string  `json:"status"`
	Instances   int     `json:"instances"`
	InstancesOK int     `json:"instances_ok"`
	UptimeS     float64 `json:"uptime_s"`
	// Flows / Samples / Records are sums over answering instances. With
	// flow-disjoint partitioning the flow sum is exact (no flow is counted
	// twice).
	Flows   int    `json:"flows"`
	Samples uint64 `json:"samples"`
	Records uint64 `json:"records"`
	// PerInstance reports each instance in configured order.
	PerInstance []InstanceHealth `json:"per_instance"`
}

// InstanceHealth is one instance's row in the fleet health report.
type InstanceHealth struct {
	Instance string `json:"instance"`
	// Status is the instance's self-reported status, or "unreachable".
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Flows   int    `json:"flows,omitempty"`
	Samples uint64 `json:"samples,omitempty"`
	Records uint64 `json:"records,omitempty"`
}

// fleetHealth gathers instance /healthz and folds the aggregate view; it
// backs both /healthz and the gauges in /metrics.
func (f *Frontend) fleetHealth(ctx context.Context) HealthJSON {
	h := HealthJSON{
		Instances: len(f.cfg.Instances),
		UptimeS:   time.Since(f.start).Seconds(),
	}
	for _, g := range f.gather(ctx, "/healthz", "", nil, nil) {
		row := InstanceHealth{Instance: g.instance, Status: "unreachable"}
		if g.err != nil {
			row.Error = g.err.Error()
		} else {
			var ih queryapi.HealthJSON
			if err := json.Unmarshal(g.body, &ih); err != nil {
				row.Error = err.Error()
				f.gErrs.Add(1)
			} else {
				row.Status = ih.Status
				row.Flows, row.Samples, row.Records = ih.Flows, ih.Samples, ih.Records
				if ih.Status == "ok" {
					h.InstancesOK++
				}
				h.Flows += ih.Flows
				h.Samples += ih.Samples
				h.Records += ih.Records
			}
		}
		h.PerInstance = append(h.PerInstance, row)
	}
	switch {
	case h.InstancesOK == h.Instances:
		h.Status = "ok"
	case h.InstancesOK > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	return h
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	h := f.fleetHealth(r.Context())
	code := http.StatusOK
	if h.Status == "down" {
		code = http.StatusServiceUnavailable
	}
	queryapi.WriteJSON(w, code, h)
}

// handleMetrics serves the front-end's own Prometheus text: fleet size and
// reachability, scatter-gather accounting, and the aggregate ingest gauges.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	h := f.fleetHealth(r.Context())
	up := make([]int, len(f.cfg.Instances))
	reachable := 0
	for i := range up {
		if i < len(h.PerInstance) && h.PerInstance[i].Status != "unreachable" {
			up[i] = 1
			reachable++
		}
	}
	m := queryapi.NewMetrics(w)
	m.Gauge("rlirfleet_instances", "Configured fleet instances.", h.Instances)
	m.Gauge("rlirfleet_instances_up", "Instances that answered the last health fan-out.", reachable)
	m.Counter("rlirfleet_queries_total", "Front-end queries served.", f.queries.Load())
	m.Counter("rlirfleet_gather_errors_total", "Instance fetches that failed or decoded badly.", f.gErrs.Load())
	for i, name := range stageNames {
		m.Counter("rlirfleet_query_stage_seconds_total", "Time merged-table queries (/flows, /comparison) spent per stage; the stages do not overlap.",
			time.Duration(f.stageNs[i].Load()).Seconds(), "stage", name)
	}
	m.Counter("rlirfleet_snapshot_bytes_total", "Instance /snapshot body bytes fetched.", f.snapBytes.Load())
	m.Gauge("rlirfleet_query_buffer_bytes", "Bytes the idle merged-table query buffers hold for reuse.", f.bufs.IdleBytes())
	m.Gauge("rlirfleet_flows", "Distinct flows across answering instances (exact under flow-disjoint partitioning).", h.Flows)
	m.Counter("rlirfleet_samples_total", "Samples ingested across answering instances.", h.Samples)
	m.Counter("rlirfleet_records_total", "NetFlow records ingested across answering instances.", h.Records)
	m.Gauge("rlirfleet_uptime_seconds", "Time since the front-end started.", time.Since(f.start).Seconds())
	for i, in := range f.cfg.Instances {
		m.Gauge("rlirfleet_instance_up", "Per-instance reachability in the last health fan-out.", up[i], "instance", in)
	}
}
