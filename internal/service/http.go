package service

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// The JSON row types live in internal/queryapi so the fleet front-end
// (cmd/rlirfleet) renders merged answers through exactly the same code
// paths a single rlird uses. The aliases keep this package's — and the
// root package's — historical names working.
type (
	// FlowJSON is one /flows row.
	FlowJSON = queryapi.FlowJSON
	// RouterJSON is one /routers row.
	RouterJSON = queryapi.RouterJSON
	// ComparisonJSON is the /comparison row shape.
	ComparisonJSON = queryapi.ComparisonJSON
	// HealthJSON is the /healthz response.
	HealthJSON = queryapi.HealthJSON
	// RollupJSON is the /rollup response.
	RollupJSON = queryapi.RollupJSON
)

func comparisonJSON(c measure.Comparison) ComparisonJSON { return queryapi.ComparisonRow(c) }

// Handler returns the query API. It is safe to serve before, during and
// after Shutdown — post-shutdown it answers from the collector's final
// state (healthz reports "draining"/"stopped").
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/flows", s.handleFlows)
	mux.HandleFunc("/routers", s.handleRouters)
	mux.HandleFunc("/rollup", s.handleRollup)
	mux.HandleFunc("/comparison", s.handleComparison)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	queryapi.WriteJSON(w, status, v)
}

// handleFlows serves the per-flow table, sorted by flow key. ?limit=N caps
// the row count (the table can hold millions of flows); it is validated
// before the table is copied.
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	limit, err := queryapi.FlowLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b := s.bodies.Get()
	queryapi.WriteFlows(w, s.coll.Snapshot(), limit, &b.flows)
	s.bodies.Put(b)
}

func (s *Server) handleRouters(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.routers))
	for n := range s.routers {
		names = append(names, n)
	}
	aggs := make([]*routerAgg, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		aggs = append(aggs, s.routers[n])
	}
	s.mu.Unlock()

	rows := make([]RouterJSON, 0, len(names))
	for i, agg := range aggs {
		agg.mu.Lock()
		rows = append(rows, RouterJSON{
			Router:              names[i],
			Frames:              agg.frames,
			Samples:             agg.samples,
			Records:             agg.records,
			Bytes:               agg.bytes,
			EstMeanNs:           agg.est.Mean(),
			EstP50Ns:            int64(agg.sketch.Quantile(0.5)),
			EstP99Ns:            int64(agg.sketch.Quantile(0.99)),
			TrueMeanNs:          agg.truth.Mean(),
			Reliable:            agg.reliable,
			TransportSegments:   agg.tSegments,
			TransportDuplicates: agg.tDuplicates,
			TransportOutOfOrder: agg.tOutOfOrder,
			TransportGaps:       agg.tGaps,
		})
		agg.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleRollup serves the aggregation tiers below the live flow table —
// the class and router aggregates that evicted/expired flows folded into —
// plus the eviction accounting. With no eviction configured the tiers are
// empty and only the accounting fields are meaningful.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, queryapi.RollupRows(s.coll.RollupSnapshot()))
}

func (s *Server) handleComparison(w http.ResponseWriter, r *http.Request) {
	cmp := measure.CompareFlowAggs("rli", s.coll.Snapshot())
	writeJSON(w, http.StatusOK, []ComparisonJSON{comparisonJSON(cmp)})
}

// handleSnapshot serves the raw flow-table state (full accumulator
// internals, not derived summaries) — the endpoint the fleet front-end
// gathers and merges exactly. A request whose Accept header names
// queryapi.SnapshotContentType gets the compact binary rendering, labelled
// with that Content-Type; any other request gets indented JSON, the
// human/debug view of the same value (see queryapi.Snapshot).
//
// The binary body is encoded from the rows the collector holds still
// (collector.Collector.View), with no copy of the table, and the shards go
// back to ingest before the body is written to the socket.
//
// The ingest totals are read BEFORE the table is cut: SamplesIngested
// advances only after a batch is queued to its shards, and the cut drains
// everything queued ahead of it, so the shipped rows hold at least the
// samples the totals count. Read after the cut, a concurrent Ingest could
// make the totals exceed what the rows explain.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	samples, records := s.ingestTotals()
	if !strings.Contains(r.Header.Get("Accept"), queryapi.SnapshotContentType) {
		writeJSON(w, http.StatusOK, queryapi.SnapshotOf(s.coll.Snapshot(), samples, records))
		return
	}
	b := s.bodies.Get()
	s.coll.View(func(rows []*collector.FlowAgg) {
		b.snapshot = queryapi.AppendSnapshotRows(b.snapshot[:0], rows, samples, records)
	})
	w.Header().Set("Content-Type", queryapi.SnapshotContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b.snapshot)))
	_, _ = w.Write(b.snapshot) // a failed write is the client's disconnect
	s.bodies.Put(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.closed.Load() {
		status, code = "stopped", http.StatusServiceUnavailable
	} else if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	sps, rps := s.window.rates()
	var kinds map[string]uint64
	if by := s.decodeErrKinds(); len(by) > 0 {
		kinds = make(map[string]uint64, len(by))
		for k, v := range by {
			kinds[k.kind] += v
		}
	}
	ts := s.coll.Stats()
	writeJSON(w, code, HealthJSON{
		Status:              status,
		UptimeS:             time.Since(s.start).Seconds(),
		Flows:               ts.Flows,
		Samples:             s.coll.SamplesIngested(),
		Records:             s.coll.RecordsIngested(),
		Frames:              s.frames.Load(),
		Conns:               s.activeConns(),
		ConnsTotal:          s.connsTotal.Load(),
		DecodeErrors:        s.decodeErrs.Load(),
		SampleRate1W:        sps,
		RecordRate1W:        rps,
		WindowSeconds:       s.cfg.Window.Seconds(),
		DecodeErrorKinds:    kinds,
		ReliableConns:       s.relConnsTotal.Load(),
		TransportSegments:   s.tSegments.Load(),
		TransportDuplicates: s.tDuplicates.Load(),
		TransportOutOfOrder: s.tOutOfOrder.Load(),
		TransportGaps:       s.tGaps.Load(),
		FlowsEvicted:        ts.Evicted,
		FlowsExpired:        ts.Expired,
		FlowClasses:         ts.Classes,
	})
}

// handleMetrics serves the Prometheus text exposition format: counters for
// the ingest totals, gauges for the live state and the rolling-window
// rates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sps, rps := s.window.rates()
	m := queryapi.NewMetrics(w)
	m.Counter("rlird_samples_total", "Latency samples ingested.", s.coll.SamplesIngested())
	m.Counter("rlird_records_total", "NetFlow records ingested.", s.coll.RecordsIngested())
	m.Counter("rlird_frames_total", "Wire frames decoded.", s.frames.Load())
	m.Counter("rlird_decode_errors_total", "Connections ended by a codec error.", s.decodeErrs.Load())
	by := s.decodeErrKinds()
	keys := make([]decodeErrKey, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].router != keys[j].router {
			return keys[i].router < keys[j].router
		}
		return keys[i].kind < keys[j].kind
	})
	for _, k := range keys {
		m.Counter("rlird_decode_error_kinds_total", "Decode errors by exporter and corruption kind.", by[k], "router", k.router, "kind", k.kind)
	}
	m.Counter("rlird_connections_total", "Exporter connections accepted.", s.connsTotal.Load())
	m.Gauge("rlird_connections_active", "Exporter connections currently streaming.", s.activeConns())
	m.Counter("rlird_reliable_connections_total", "Connections that spoke the swp reliable framing.", s.relConnsTotal.Load())
	m.Counter("rlird_transport_segments_total", "Data segments received over reliable connections.", s.tSegments.Load())
	m.Counter("rlird_transport_duplicates_total", "Duplicate segments dropped (retransmissions whose original arrived).", s.tDuplicates.Load())
	m.Counter("rlird_transport_beyond_window_total", "Segments dropped for lying a window or more past the next expected one (no conforming sender sends them).", s.tBeyond.Load())
	m.Counter("rlird_transport_out_of_order_total", "Segments reorder-buffered before in-order delivery.", s.tOutOfOrder.Load())
	m.Counter("rlird_transport_gaps_total", "Sequence-gap episodes observed by reliable receivers.", s.tGaps.Load())
	s.mu.Lock()
	names := make([]string, 0, len(s.routers))
	for n := range s.routers {
		names = append(names, n)
	}
	sort.Strings(names)
	perRouter := make([]struct {
		name             string
		segs, dups, gaps uint64
	}, 0, len(names))
	for _, n := range names {
		agg := s.routers[n]
		agg.mu.Lock()
		if agg.reliable {
			perRouter = append(perRouter, struct {
				name             string
				segs, dups, gaps uint64
			}{n, agg.tSegments, agg.tDuplicates, agg.tGaps})
		}
		agg.mu.Unlock()
	}
	s.mu.Unlock()
	for _, r := range perRouter {
		m.Counter("rlird_router_transport_segments_total", "Data segments received, by exporter.", r.segs, "router", r.name)
	}
	for _, r := range perRouter {
		m.Counter("rlird_router_transport_duplicates_total", "Duplicate segments dropped, by exporter.", r.dups, "router", r.name)
	}
	for _, r := range perRouter {
		m.Counter("rlird_router_transport_gaps_total", "Sequence-gap episodes, by exporter.", r.gaps, "router", r.name)
	}
	perShard := s.coll.ShardStats()
	var ts collector.TableStats
	for _, st := range perShard {
		ts.Add(st)
	}
	m.Gauge("rlird_flows", "Distinct flows aggregated.", ts.Flows)
	m.Gauge("rlird_flows_tracked", "Flows currently tracked individually (excludes rollup tiers).", ts.Flows)
	m.Counter("rlird_flows_evicted_total", "Flows folded into rollup tiers by the max-flows cap.", ts.Evicted)
	m.Counter("rlird_flows_expired_total", "Flows folded into rollup tiers by idle-window expiry.", ts.Expired)
	m.Gauge("rlird_flow_classes", "Class-tier rollup aggregates currently held.", ts.Classes)
	m.Counter("rlird_flow_entries_recycled_total", "New flows that reused a displaced flow's table entry and sketch storage.", ts.Recycled)
	m.Gauge("rlird_shards", "Collector shard goroutines.", s.coll.Shards())
	reads, held := s.coll.Reads()
	m.Counter("rlird_snapshots_total", "Consistent cuts of the flow table read (/snapshot, /flows, /comparison).", reads)
	m.Counter("rlird_snapshot_hold_seconds_total", "Time the shards held still for reads, ingesting nothing.", held.Seconds())
	for i, d := range s.coll.QueueDepths() {
		m.Gauge("rlird_shard_queue_depth", "Batches queued for each shard right now; pinned at the configured depth means the shards, not the connection loops, bound ingest.", d, "shard", strconv.Itoa(i))
	}
	for i, st := range perShard {
		m.Gauge("rlird_shard_flows", "Flows each shard tracks individually right now; an idle shard beside a full one means the flow hash leaves it without flows.", st.Flows, "shard", strconv.Itoa(i))
	}
	for i, n := range s.coll.ShardSketchBytes() {
		m.Gauge("rlird_sketch_bytes", "Sketch storage each shard holds: its flow entries' and rollup tiers' windows and its spare windows.", n, "shard", strconv.Itoa(i))
	}
	m.Gauge("rlird_ingest_samples_per_second", "Rolling-window sample ingest rate.", sps)
	m.Gauge("rlird_ingest_records_per_second", "Rolling-window record ingest rate.", rps)
	m.Gauge("rlird_uptime_seconds", "Time since the service started.", time.Since(s.start).Seconds())
}
