package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// rlirdMetricFamilies is every HELP/TYPE line rlird's /metrics prints, in
// order: the families captured before the handler moved onto
// queryapi.Metrics, so dashboards keyed on names, help text or types see no
// change, plus rlird_shard_flows and the two read families
// (rlird_snapshots_total, rlird_snapshot_hold_seconds_total), added since.
const rlirdMetricFamilies = `# HELP rlird_samples_total Latency samples ingested.
# TYPE rlird_samples_total counter
# HELP rlird_records_total NetFlow records ingested.
# TYPE rlird_records_total counter
# HELP rlird_frames_total Wire frames decoded.
# TYPE rlird_frames_total counter
# HELP rlird_decode_errors_total Connections ended by a codec error.
# TYPE rlird_decode_errors_total counter
# HELP rlird_decode_error_kinds_total Decode errors by exporter and corruption kind.
# TYPE rlird_decode_error_kinds_total counter
# HELP rlird_connections_total Exporter connections accepted.
# TYPE rlird_connections_total counter
# HELP rlird_connections_active Exporter connections currently streaming.
# TYPE rlird_connections_active gauge
# HELP rlird_reliable_connections_total Connections that spoke the swp reliable framing.
# TYPE rlird_reliable_connections_total counter
# HELP rlird_transport_segments_total Data segments received over reliable connections.
# TYPE rlird_transport_segments_total counter
# HELP rlird_transport_duplicates_total Duplicate segments dropped (retransmissions whose original arrived).
# TYPE rlird_transport_duplicates_total counter
# HELP rlird_transport_beyond_window_total Segments dropped for lying a window or more past the next expected one (no conforming sender sends them).
# TYPE rlird_transport_beyond_window_total counter
# HELP rlird_transport_out_of_order_total Segments reorder-buffered before in-order delivery.
# TYPE rlird_transport_out_of_order_total counter
# HELP rlird_transport_gaps_total Sequence-gap episodes observed by reliable receivers.
# TYPE rlird_transport_gaps_total counter
# HELP rlird_router_transport_segments_total Data segments received, by exporter.
# TYPE rlird_router_transport_segments_total counter
# HELP rlird_router_transport_duplicates_total Duplicate segments dropped, by exporter.
# TYPE rlird_router_transport_duplicates_total counter
# HELP rlird_router_transport_gaps_total Sequence-gap episodes, by exporter.
# TYPE rlird_router_transport_gaps_total counter
# HELP rlird_flows Distinct flows aggregated.
# TYPE rlird_flows gauge
# HELP rlird_flows_tracked Flows currently tracked individually (excludes rollup tiers).
# TYPE rlird_flows_tracked gauge
# HELP rlird_flows_evicted_total Flows folded into rollup tiers by the max-flows cap.
# TYPE rlird_flows_evicted_total counter
# HELP rlird_flows_expired_total Flows folded into rollup tiers by idle-window expiry.
# TYPE rlird_flows_expired_total counter
# HELP rlird_flow_classes Class-tier rollup aggregates currently held.
# TYPE rlird_flow_classes gauge
# HELP rlird_flow_entries_recycled_total New flows that reused a displaced flow's table entry and sketch storage.
# TYPE rlird_flow_entries_recycled_total counter
# HELP rlird_shards Collector shard goroutines.
# TYPE rlird_shards gauge
# HELP rlird_snapshots_total Consistent cuts of the flow table read (/snapshot, /flows, /comparison).
# TYPE rlird_snapshots_total counter
# HELP rlird_snapshot_hold_seconds_total Time the shards held still for reads, ingesting nothing.
# TYPE rlird_snapshot_hold_seconds_total counter
# HELP rlird_shard_queue_depth Batches queued for each shard right now; pinned at the configured depth means the shards, not the connection loops, bound ingest.
# TYPE rlird_shard_queue_depth gauge
# HELP rlird_shard_flows Flows each shard tracks individually right now; an idle shard beside a full one means the flow hash leaves it without flows.
# TYPE rlird_shard_flows gauge
# HELP rlird_ingest_samples_per_second Rolling-window sample ingest rate.
# TYPE rlird_ingest_samples_per_second gauge
# HELP rlird_ingest_records_per_second Rolling-window record ingest rate.
# TYPE rlird_ingest_records_per_second gauge
# HELP rlird_uptime_seconds Time since the service started.
# TYPE rlird_uptime_seconds gauge
`

// TestMetricsFamiliesUnchanged serves /metrics with every conditional
// family triggered (a labelled decode error, a reliable exporter) and diffs
// the HELP/TYPE lines against the captured list.
func TestMetricsFamiliesUnchanged(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.recordDecodeErr("exporter-1", errors.New("bad frame"))
	agg := s.routerFor("exporter-1")
	agg.mu.Lock()
	agg.reliable = true
	agg.mu.Unlock()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got strings.Builder
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			got.WriteString(line)
		}
	}
	if got.String() != rlirdMetricFamilies {
		t.Fatalf("/metrics HELP/TYPE lines changed:\n%s\nwant:\n%s", got.String(), rlirdMetricFamilies)
	}
	for _, sample := range []string{
		`rlird_decode_error_kinds_total{router="exporter-1",kind="other"} 1`,
		`rlird_router_transport_gaps_total{router="exporter-1"} 0`,
		`rlird_shard_queue_depth{shard="0"} 0`,
		`rlird_shard_flows{shard="0"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), sample+"\n") {
			t.Errorf("/metrics missing sample line %q", sample)
		}
	}
}

// TestMetricsCountReads pins the two read families: every cut of the flow
// table — binary and JSON /snapshot, /flows, /comparison — counts once in
// rlird_snapshots_total, and only a running collector's shards hold still,
// so reads of the closed one add no hold time.
func TestMetricsCountReads(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.Collector().Ingest(genSamples(2000, 50))
	metric := func(name string) float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s sample", name)
		return 0
	}
	read := func() {
		getSnapshot(t, s, true)
		getSnapshot(t, s, false)
		for _, path := range []string{"/flows", "/comparison"} {
			s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
	}
	if n := metric("rlird_snapshots_total"); n != 0 {
		t.Fatalf("rlird_snapshots_total %v before any read", n)
	}
	read()
	held := metric("rlird_snapshot_hold_seconds_total")
	if n := metric("rlird_snapshots_total"); n != 4 || held <= 0 {
		t.Fatalf("after four reads: rlird_snapshots_total %v, rlird_snapshot_hold_seconds_total %v", n, held)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	read()
	if n, h := metric("rlird_snapshots_total"), metric("rlird_snapshot_hold_seconds_total"); n != 8 || h != held {
		t.Fatalf("after four reads of the closed collector: rlird_snapshots_total %v, hold seconds %v (was %v)", n, h, held)
	}
}
