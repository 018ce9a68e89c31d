package fleet_test

// The fleet acceptance pin: a fleet of N rlird instances fed through
// fleet.Router must answer — through the scatter-gather front-end — with
// exactly the flow table and comparison a single node (the batch engine)
// produces for the same export stream, for N = 1, 2 and 4. This package is
// an external test (fleet_test) so it may import internal/service and
// internal/scenario; the fleet package itself must not (scenario imports
// fleet, and the service tests import scenario).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
	"github.com/netmeasure/rlir/internal/stats"
)

// testFleet is N live rlird instances plus the front-end serving them.
type testFleet struct {
	servers []*service.Server
	front   *httptest.Server
}

// startFleet boots n service instances (TCP ingest + HTTP query API, both
// on ephemeral ports) and a scatter-gather front-end over them.
func startFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	tf := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		tf.servers = append(tf.servers, s)
		urls[i] = "http://" + s.HTTPAddr().String()
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tf.front = httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		tf.front.Close()
		for _, s := range tf.servers {
			_ = s.Shutdown(context.Background())
		}
	})
	return tf
}

// ingestAddrs returns the instances' wire-ingest addresses in order.
func (tf *testFleet) ingestAddrs() []string {
	out := make([]string, len(tf.servers))
	for i, s := range tf.servers {
		out[i] = s.Addr().String()
	}
	return out
}

// waitIngested blocks until the fleet as a whole holds want samples.
func (tf *testFleet) waitIngested(t testing.TB, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got uint64
		for _, s := range tf.servers {
			got += s.Collector().SamplesIngested()
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet ingested %d of %d samples before timeout", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// routeTrace streams a captured export through a fleet.Router into the
// fleet, two connections per endpoint, and waits for full ingestion.
func (tf *testFleet) routeTrace(t testing.TB, tr *scenario.Trace) {
	t.Helper()
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints:        tf.ingestAddrs(),
		ConnsPerEndpoint: 2,
		Name:             "replay",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.Dial("tcp", endpoint, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 300
	for off := 0; off < len(tr.Samples); off += chunk {
		end := off + chunk
		if end > len(tr.Samples) {
			end = len(tr.Samples)
		}
		r.RouteSamples(tr.Samples[off:end])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tf.waitIngested(t, uint64(len(tr.Samples)))
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v\n%s", url, err, body)
	}
	return resp.StatusCode
}

func exportBaseline(t testing.TB) *scenario.Trace {
	t.Helper()
	sc, ok := scenario.Get("baseline-tandem")
	if !ok {
		t.Fatal("baseline-tandem not registered")
	}
	tr, err := scenario.Export(sc.Spec, sc.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) == 0 {
		t.Fatal("empty export")
	}
	return tr
}

func floatPtrEq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// TestFleetOfNMatchesSingleNode is the acceptance criterion: for N = 1, 2
// and 4, the front-end's /flows and /comparison over a partitioned fleet
// are field-for-field identical to the batch engine's single-node answer
// for the same export stream.
func TestFleetOfNMatchesSingleNode(t *testing.T) {
	tr := exportBaseline(t)
	batch := tr.Result.Fleet // the single-node reference flow table

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			tf := startFleet(t, n)
			tf.routeTrace(t, tr)

			var flows []queryapi.FlowJSON
			if code := getJSON(t, tf.front.URL+"/flows", &flows); code != http.StatusOK {
				t.Fatalf("/flows status %d", code)
			}
			if len(flows) != len(batch) {
				t.Fatalf("fleet /flows has %d rows, single node has %d", len(flows), len(batch))
			}
			for i := range batch {
				want := queryapi.FlowRow(&batch[i])
				if flows[i] != want {
					t.Fatalf("N=%d flow %d diverged:\nfleet  %+v\nsingle %+v", n, i, flows[i], want)
				}
			}

			var got []queryapi.ComparisonJSON
			if code := getJSON(t, tf.front.URL+"/comparison", &got); code != http.StatusOK {
				t.Fatalf("/comparison status %d", code)
			}
			want := queryapi.ComparisonRow(measure.CompareFlowAggs("rli", batch))
			if len(got) != 1 {
				t.Fatalf("/comparison has %d rows", len(got))
			}
			if got[0].Estimator != want.Estimator || got[0].Flows != want.Flows ||
				got[0].Samples != want.Samples || got[0].AggMeanNs != want.AggMeanNs ||
				got[0].AggSamples != want.AggSamples ||
				!floatPtrEq(got[0].MedianRelErr, want.MedianRelErr) ||
				!floatPtrEq(got[0].P99RelErr, want.P99RelErr) ||
				!floatPtrEq(got[0].AggRelErr, want.AggRelErr) {
				t.Fatalf("N=%d /comparison diverged:\nfleet  %+v\nsingle %+v", n, got[0], want)
			}
		})
	}
}

// TestFleetFlowsUnderConcurrentIngest is the bar ROADMAP sets for any
// shortcut on the query path, run under -race in CI: while one export stream
// is ingested into a fleet of two and into a single rlird, readers keep
// asking the front-end for /flows. Every answer taken mid-ingest must be a
// well-formed, strictly key-ordered table no larger than the final one; the
// answer taken once the stream is in must be the single rlird's, byte for
// byte, and decode reflect.DeepEqual to the batch engine's rows.
func TestFleetFlowsUnderConcurrentIngest(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	single, err := service.New(service.Config{HTTP: "127.0.0.1:0", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background())

	flows := func(url string) (body []byte, rows []queryapi.FlowJSON, err error) {
		resp, err := http.Get(url + "/flows")
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("/flows status %d: %s", resp.StatusCode, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			return nil, nil, fmt.Errorf("/flows Content-Length %q for %d bytes", cl, len(body))
		}
		return body, rows, json.Unmarshal(body, &rows)
	}

	// Readers query until the stream is in. The feeder waits for a fresh
	// answer after every chunk, so queries and ingest really interleave.
	done, aborted, tick := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	abort := sync.OnceFunc(func() { close(aborted) })
	var readers sync.WaitGroup
	var queries atomic.Int64
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, rows, err := flows(tf.front.URL)
				for i := 1; err == nil && i < len(rows); i++ {
					if rowKey(rows[i-1]) >= rowKey(rows[i]) {
						err = fmt.Errorf("mid-ingest /flows rows %d and %d are out of key order", i-1, i)
					}
				}
				if err == nil && len(rows) > len(tr.Result.Fleet) {
					err = fmt.Errorf("mid-ingest /flows has %d rows, the whole stream has %d flows", len(rows), len(tr.Result.Fleet))
				}
				if err != nil {
					t.Error(err)
					abort()
					return
				}
				queries.Add(1)
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}()
	}
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints: tf.ingestAddrs(),
		Name:      "replay",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.Dial("tcp", endpoint, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64
	for off := 0; off < len(tr.Samples); off += chunk {
		part := tr.Samples[off:min(off+chunk, len(tr.Samples))]
		r.RouteSamples(part)
		single.Collector().Ingest(part)
		select {
		case <-tick:
		case <-aborted:
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tf.waitIngested(t, uint64(len(tr.Samples)))
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d /flows answered while %d samples were being ingested", queries.Load(), len(tr.Samples))

	fleetBody, fleetRows, err := flows(tf.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	singleBody, singleRows, err := flows("http://" + single.HTTPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetBody, singleBody) {
		t.Fatalf("fleet /flows (%d bytes) differs from the single rlird's (%d bytes)", len(fleetBody), len(singleBody))
	}
	batch := make([]queryapi.FlowJSON, len(tr.Result.Fleet))
	for i := range batch {
		batch[i] = queryapi.FlowRow(&tr.Result.Fleet[i])
	}
	if !reflect.DeepEqual(fleetRows, batch) || !reflect.DeepEqual(singleRows, batch) {
		t.Fatalf("decoded /flows diverges from the batch engine's %d rows (fleet %d, single %d)", len(batch), len(fleetRows), len(singleRows))
	}
}

// rowKey renders a row's 5-tuple so that string order is flow-key order.
func rowKey(r queryapi.FlowJSON) string {
	src, dst := packet.MustParseAddr(r.Src), packet.MustParseAddr(r.Dst)
	return fmt.Sprintf("%08x %08x %04x %04x %02x", uint32(src), uint32(dst), r.SrcPort, r.DstPort, r.Proto)
}

// TestFrontendAnnotatesRouters checks /routers carries every exporter
// identity the router announced, tagged with the instance that saw it.
func TestFrontendAnnotatesRouters(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	var rows []queryapi.RouterJSON
	if code := getJSON(t, tf.front.URL+"/routers", &rows); code != http.StatusOK {
		t.Fatalf("/routers status %d", code)
	}
	if len(rows) != 4 { // 2 endpoints x 2 conns, one hello identity each
		t.Fatalf("/routers has %d rows, want 4", len(rows))
	}
	var samples uint64
	for _, r := range rows {
		if r.Instance == "" {
			t.Fatalf("row %q missing instance annotation", r.Router)
		}
		samples += r.Samples
	}
	if samples != uint64(len(tr.Samples)) {
		t.Fatalf("/routers accounts %d samples, want %d", samples, len(tr.Samples))
	}
}

// TestFrontendDegradedMode kills one instance of two: the merged table must
// shrink to the surviving partition (not error), health must degrade, and
// killing the second instance turns queries into 502 and health into 503.
func TestFrontendDegradedMode(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	if err := tf.servers[1].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var flows []queryapi.FlowJSON
	if code := getJSON(t, tf.front.URL+"/flows", &flows); code != http.StatusOK {
		t.Fatalf("/flows status %d after one instance down", code)
	}
	want := tf.servers[0].Snapshot()
	if len(flows) != len(want) {
		t.Fatalf("degraded /flows has %d rows, surviving instance holds %d", len(flows), len(want))
	}
	for i := range want {
		if flows[i] != queryapi.FlowRow(&want[i]) {
			t.Fatalf("degraded flow %d diverged", i)
		}
	}

	var h fleet.HealthJSON
	if code := getJSON(t, tf.front.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200 while degraded", code)
	}
	if h.Status != "degraded" || h.InstancesOK != 1 || h.Instances != 2 {
		t.Fatalf("health %+v, want degraded 1/2", h)
	}

	if err := tf.servers[0].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tf.front.URL + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/flows status %d with the whole fleet down, want 502", resp.StatusCode)
	}
	code := getJSON(t, tf.front.URL+"/healthz", &h)
	if code != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("/healthz %d %q with the whole fleet down, want 503 down", code, h.Status)
	}
}

// TestFrontendHealthCountsOnlyOK: an instance that answers /healthz
// "draining" or "stopped" (with rlird's 503) is reachable but not ok, so a
// fleet holding one is degraded, and one holding nothing else is down;
// rlirfleet_instance_up still reports every such instance reachable.
func TestFrontendHealthCountsOnlyOK(t *testing.T) {
	stub := func(status string) string {
		code := http.StatusOK
		if status != "ok" {
			code = http.StatusServiceUnavailable
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			queryapi.WriteJSON(w, code, queryapi.HealthJSON{Status: status, Flows: 3})
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for _, c := range []struct {
		statuses []string
		want     string
		ok       int
		code     int
	}{
		{[]string{"ok", "ok"}, "ok", 2, http.StatusOK},
		{[]string{"ok", "draining"}, "degraded", 1, http.StatusOK},
		{[]string{"stopped", "ok", "draining"}, "degraded", 1, http.StatusOK},
		{[]string{"draining", "stopped"}, "down", 0, http.StatusServiceUnavailable},
	} {
		urls := make([]string, len(c.statuses))
		for i, st := range c.statuses {
			urls[i] = stub(st)
		}
		front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(front.Handler(), "/healthz")
		var h fleet.HealthJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if rec.Code != c.code || h.Status != c.want || h.InstancesOK != c.ok || h.Instances != len(urls) || h.Flows != 3*len(urls) {
			t.Fatalf("instances %v: /healthz %d %+v, want %d %q with %d ok", c.statuses, rec.Code, h, c.code, c.want, c.ok)
		}
		exposition := serve(front.Handler(), "/metrics").Body.String()
		if up := metricValue(t, exposition, "rlirfleet_instances_up"); up != float64(len(urls)) {
			t.Fatalf("instances %v: rlirfleet_instances_up %g, want every instance reachable", c.statuses, up)
		}
		for _, u := range urls {
			if up := metricValue(t, exposition, fmt.Sprintf("rlirfleet_instance_up{instance=%q}", u)); up != 1 {
				t.Fatalf("instances %v: %s reported down", c.statuses, u)
			}
		}
	}
}

// TestFrontendConfigErrors pins NewFrontend's validation.
func TestFrontendConfigErrors(t *testing.T) {
	if _, err := fleet.NewFrontend(fleet.FrontendConfig{}); err == nil {
		t.Fatal("empty instance list accepted")
	}
	for _, bad := range []string{"127.0.0.1:7172", "ftp://host", "http://"} {
		if _, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: []string{bad}}); err == nil {
			t.Fatalf("bad instance URL %q accepted", bad)
		}
	}
}

// TestRouterOverReliableTransport runs the same equivalence with swp-framed
// sinks — the Router is framing-agnostic because the dialer chooses — and
// checks the aggregated transport counters survive Close.
func TestRouterOverReliableTransport(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints: tf.ingestAddrs(),
		Name:      "rel",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.DialWith(service.DialOptions{Addr: endpoint, Reliable: true})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 400
	for off := 0; off < len(tr.Samples); off += chunk {
		end := off + chunk
		if end > len(tr.Samples) {
			end = len(tr.Samples)
		}
		r.RouteSamples(tr.Samples[off:end])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok := r.TransportStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("no transport stats from reliable sinks: %+v ok=%v", st, ok)
	}
	tf.waitIngested(t, uint64(len(tr.Samples)))

	var flows []queryapi.FlowJSON
	getJSON(t, tf.front.URL+"/flows", &flows)
	batch := tr.Result.Fleet
	if len(flows) != len(batch) {
		t.Fatalf("reliable fleet /flows has %d rows, want %d", len(flows), len(batch))
	}
	for i := range batch {
		if flows[i] != queryapi.FlowRow(&batch[i]) {
			t.Fatalf("reliable flow %d diverged", i)
		}
	}
	// Sanity: the partitions really were disjoint and non-trivial for N=2.
	a := tf.servers[0].Collector().SamplesIngested()
	b := tf.servers[1].Collector().SamplesIngested()
	if a == 0 || b == 0 {
		t.Fatalf("degenerate partition: %d / %d samples", a, b)
	}
}

// TestFrontendRejectsStaleSnapshot pins the snapshot schema gate at the
// fleet boundary: an instance speaking an older snapshot version is skipped
// like an unreachable one (degraded service, never silently-wrong merges),
// and a fleet made only of stale instances turns /flows into a 502 whose
// body names both versions. The stale peers are a pre-versioning one, a
// version-2 one (rows still carrying the per-flow histogram) answering in
// either rendering, and a version-3 one (sketches sent as whole counter
// windows), their bodies captured from the last commit that spoke each.
func TestFrontendRejectsStaleSnapshot(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "queryapi", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	v2bin, v2json := fixture("snapshot_v2.bin"), fixture("snapshot_v2.json")
	v3bin, v3json := fixture("snapshot_v3.bin"), fixture("snapshot_v3.json")
	serveJSON := func(body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		}
	}

	s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.Collector().Ingest([]collector.Sample{{
		Key: packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP},
		Est: time.Millisecond,
	}})

	// A peer old enough to answer only JSON is refused on its Content-Type;
	// one that negotiates the binary rendering, on its schema version.
	jsonRefusal := []string{`Content-Type "application/json"`, queryapi.SnapshotContentType}
	for _, c := range []struct {
		name string
		want []string // what the lone-instance 502 must say
		peer http.HandlerFunc
	}{
		{"pre-versioning", jsonRefusal, serveJSON([]byte(`{"samples":7,"records":0,"flows":[]}`))},
		{"v2-negotiating", []string{"version 2 from peer", fmt.Sprintf("speaks version %d", queryapi.SnapshotVersion)}, func(w http.ResponseWriter, r *http.Request) {
			if !strings.Contains(r.Header.Get("Accept"), queryapi.SnapshotContentType) {
				serveJSON(v2json)(w, r)
				return
			}
			w.Header().Set("Content-Type", queryapi.SnapshotContentType)
			w.Write(v2bin)
		}},
		{"v2-json-only", jsonRefusal, serveJSON(v2json)},
		{"v3-negotiating", []string{"version 3 from peer", fmt.Sprintf("speaks version %d", queryapi.SnapshotVersion)}, func(w http.ResponseWriter, r *http.Request) {
			if !strings.Contains(r.Header.Get("Accept"), queryapi.SnapshotContentType) {
				serveJSON(v3json)(w, r)
				return
			}
			w.Header().Set("Content-Type", queryapi.SnapshotContentType)
			w.Write(v3bin)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stale := httptest.NewServer(c.peer)
			defer stale.Close()

			front, err := fleet.NewFrontend(fleet.FrontendConfig{
				Instances: []string{"http://" + s.HTTPAddr().String(), stale.URL},
				Timeout:   5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			mixed := httptest.NewServer(front.Handler())
			defer mixed.Close()

			var flows []queryapi.FlowJSON
			if code := getJSON(t, mixed.URL+"/flows", &flows); code != http.StatusOK {
				t.Fatalf("/flows status %d with one stale instance, want 200 degraded", code)
			}
			if len(flows) != 1 {
				t.Fatalf("/flows has %d rows, want only the current instance's 1", len(flows))
			}

			lone, err := fleet.NewFrontend(fleet.FrontendConfig{
				Instances: []string{stale.URL},
				Timeout:   5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			loneSrv := httptest.NewServer(lone.Handler())
			defer loneSrv.Close()
			resp, err := http.Get(loneSrv.URL + "/flows")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("/flows status %d over an all-stale fleet, want 502", resp.StatusCode)
			}
			for _, want := range append([]string{stale.URL + "/snapshot"}, c.want...) {
				if !strings.Contains(string(body), want) {
					t.Fatalf("502 body must name %q, got:\n%s", want, body)
				}
			}
		})
	}
}

// TestFrontendRefusesOversizedBody pins the bound on what the front-end
// reads of one instance: a body past the limit is that instance's gather
// error — skipped beside a healthy instance, a 502 naming the instance and
// the limit when it was the only one — whether the peer declares the length
// (refused on the header, at the real 64 MB limit) or just keeps streaming
// (cut at a limit lowered to 64 kB; the peer streams until the front-end
// hangs up, so one that read on would end at its Timeout, not at the limit).
func TestFrontendRefusesOversizedBody(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aggs := []collector.FlowAgg{{Key: packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP}}}
		aggs[0].Est.SetState(stats.WelfordState{N: 1, Mean: 1000})
		w.Header().Set("Content-Type", queryapi.SnapshotContentType)
		_, _ = w.Write(queryapi.AppendSnapshot(nil, aggs, 1, 0))
	}))
	defer healthy.Close()

	const lowered = 64 << 10
	for _, c := range []struct {
		name  string
		limit int64 // 0 keeps the front-end's own
		want  string
		peer  http.HandlerFunc
	}{
		{"declared", 0, "exceeds the 67108864-byte limit", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(64<<20+1))
			_, _ = w.Write([]byte("x"))
		}},
		{"streamed", lowered, "exceeds the 65536-byte limit", func(w http.ResponseWriter, r *http.Request) {
			chunk := bytes.Repeat([]byte("x"), 4<<10)
			for r.Context().Err() == nil {
				if _, err := w.Write(chunk); err != nil {
					return
				}
				w.(http.Flusher).Flush()
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			hostile := httptest.NewServer(c.peer)
			defer hostile.Close()
			front := func(instances ...string) http.Handler {
				f, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: instances, Timeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				if c.limit > 0 {
					f.SetMaxBody(c.limit)
				}
				return f.Handler()
			}

			rec := serve(front(hostile.URL), "/flows")
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("/flows status %d over a lone oversized instance, want 502", rec.Code)
			}
			for _, want := range []string{hostile.URL + "/snapshot", c.want} {
				if !strings.Contains(rec.Body.String(), want) {
					t.Fatalf("502 body must name %q, got:\n%s", want, rec.Body.String())
				}
			}

			rec = serve(front(healthy.URL, hostile.URL), "/flows")
			var flows []queryapi.FlowJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &flows); rec.Code != http.StatusOK || err != nil || len(flows) != 1 {
				t.Fatalf("/flows beside a healthy instance: status %d, %d rows (%v), want 200 with the healthy instance's 1", rec.Code, len(flows), err)
			}
		})
	}
}

// TestFrontendNonFiniteIsA500 pins what the front-end does with a value JSON
// cannot carry. The binary snapshot codec ships float bits verbatim, so a peer
// can hand the front-end a NaN or infinite mean; both response writers then
// answer 500 with the reason — the /flows row encoder and, for /comparison,
// queryapi.WriteJSON — where a committed 200 with an empty or cut-off body
// went out before. A NaN reaches /comparison only as an undefined (null)
// error, which is a valid answer.
func TestFrontendNonFiniteIsA500(t *testing.T) {
	for _, c := range []struct {
		name              string
		mean              float64
		flows, comparison int
	}{
		{"NaN", math.NaN(), http.StatusInternalServerError, http.StatusOK},
		{"+Inf", math.Inf(1), http.StatusInternalServerError, http.StatusInternalServerError},
	} {
		t.Run(c.name, func(t *testing.T) {
			aggs := make([]collector.FlowAgg, 3)
			for i := range aggs {
				aggs[i].Key = packet.FlowKey{Src: packet.Addr(0x0a000001 + i), Dst: 0x0a000063, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP}
				aggs[i].Est.SetState(stats.WelfordState{N: 4, Mean: 2000, M2: 8})
				aggs[i].True.SetState(stats.WelfordState{N: 4, Mean: 1900})
			}
			aggs[1].Est.SetState(stats.WelfordState{N: 4, Mean: c.mean})
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", queryapi.SnapshotContentType)
				_, _ = w.Write(queryapi.AppendSnapshot(nil, aggs, 12, 0))
			}))
			defer peer.Close()
			front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: []string{peer.URL}, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			for path, want := range map[string]int{"/flows": c.flows, "/comparison": c.comparison} {
				rec := serve(front.Handler(), path)
				body := rec.Body.String()
				if rec.Code != want {
					t.Fatalf("%s answered %d, want %d:\n%s", path, rec.Code, want, body)
				}
				if want == http.StatusOK {
					var rows []queryapi.ComparisonJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil || len(rows) != 1 || rows[0].AggRelErr != nil {
						t.Fatalf("%s 200 body is not one row with an undefined aggregate error (%v):\n%s", path, err, body)
					}
				} else if body == "" || json.Valid(rec.Body.Bytes()) || !strings.Contains(body, c.name) {
					t.Fatalf("%s 500 body must be the plain-text reason naming %s, got:\n%s", path, c.name, body)
				}
			}
			// A limit that stops short of the bad row renders fine.
			if rec := serve(front.Handler(), "/flows?limit=1"); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("/flows?limit=1 answered %d:\n%s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestFrontendRollupAnnotatesInstances checks /rollup is a per-instance
// gather (eviction contents depend on each instance's arrival order, so the
// front-end annotates rather than merges) whose accounting covers the fleet.
func TestFrontendRollupAnnotatesInstances(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	var rows []queryapi.RollupJSON
	if code := getJSON(t, tf.front.URL+"/rollup", &rows); code != http.StatusOK {
		t.Fatalf("/rollup status %d", code)
	}
	if len(rows) != 2 {
		t.Fatalf("/rollup has %d rows, want one per instance", len(rows))
	}
	tracked := 0
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Instance == "" {
			t.Fatal("rollup row missing instance annotation")
		}
		seen[r.Instance] = true
		tracked += r.FlowsTracked
		if r.FlowsEvicted != 0 || r.FlowsExpired != 0 {
			t.Fatalf("uncapped instance reports evictions: %+v", r)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("rollup rows name %d distinct instances, want 2", len(seen))
	}
	if tracked != len(tr.Result.Fleet) {
		t.Fatalf("fleet tracks %d flows across rollups, single node holds %d", tracked, len(tr.Result.Fleet))
	}
}

// instanceURLs returns the instances' query-API base URLs in order.
func (tf *testFleet) instanceURLs() []string {
	out := make([]string, len(tf.servers))
	for i, s := range tf.servers {
		out[i] = "http://" + s.HTTPAddr().String()
	}
	return out
}

// serve runs one request through h in-process and returns the response.
func serve(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

// metricValue reads one sample (name plus any label set, verbatim) from a
// Prometheus text exposition.
func metricValue(t testing.TB, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", sample, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from:\n%s", sample, exposition)
	return 0
}

// TestFrontendBadLimitIssuesNoInstanceRequests pins that /flows validates
// ?limit= before the fan-out: a malformed or negative limit is a 400 that
// costs the fleet no request at all, where it used to gather, decode and
// merge every instance's table first.
func TestFrontendBadLimitIssuesNoInstanceRequests(t *testing.T) {
	var requests atomic.Int64
	urls := make([]string, 2)
	for i := range urls {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			w.Header().Set("Content-Type", queryapi.SnapshotContentType)
			w.Write(queryapi.AppendSnapshot(nil, nil, 0, 0))
		}))
		defer stub.Close()
		urls[i] = stub.URL
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"-1", "x", "1.5"} {
		if rec := serve(front.Handler(), "/flows?limit="+q); rec.Code != http.StatusBadRequest {
			t.Fatalf("limit=%s: status %d, want 400", q, rec.Code)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("bad limits cost the fleet %d instance requests, want 0", n)
	}
	if rec := serve(front.Handler(), "/flows?limit=3"); rec.Code != http.StatusOK {
		t.Fatalf("limit=3: status %d", rec.Code)
	}
	if n := requests.Load(); n != int64(len(urls)) {
		t.Fatalf("a good limit issued %d instance requests, want %d", n, len(urls))
	}
}

// TestFrontendMixedRenderings pins that the front-end reads the binary
// snapshot rendering and nothing else: an rlird reached through a proxy that
// strips the Accept header answers its JSON debug view, and that body is the
// instance's gather error — skipped beside a healthy instance, a 502 naming
// the instance and the Content-Type when it was the only one.
func TestFrontendMixedRenderings(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)
	urls := tf.instanceURLs()

	target, err := url.Parse(urls[1])
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		proxy.ServeHTTP(w, r)
	}))
	defer jsonOnly.Close()

	fronts := map[string]http.Handler{}
	for name, instances := range map[string][]string{
		"mixed": {urls[0], jsonOnly.URL},
		"lone":  {jsonOnly.URL},
	} {
		f, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: instances, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		fronts[name] = f.Handler()
	}

	mixed := serve(fronts["mixed"], "/flows")
	if mixed.Code != http.StatusOK {
		t.Fatalf("/flows status %d with one JSON-only instance, want 200 degraded", mixed.Code)
	}
	var rows []queryapi.FlowJSON
	if err := json.Unmarshal(mixed.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if want := tf.servers[0].Snapshot(); len(rows) != len(want) || len(rows) == 0 {
		t.Fatalf("/flows has %d rows, want the binary-speaking instance's %d", len(rows), len(want))
	}
	exposition := serve(fronts["mixed"], "/metrics").Body.String()
	if n := metricValue(t, exposition, "rlirfleet_gather_errors_total"); n != 1 {
		t.Fatalf("mixed fleet counted %v gather errors after one query, want 1", n)
	}
	if strings.Contains(exposition, "json_fallbacks") {
		t.Fatal("/metrics still exposes the JSON-fallback counter")
	}

	lone := serve(fronts["lone"], "/flows")
	if lone.Code != http.StatusBadGateway {
		t.Fatalf("/flows status %d over a JSON-only fleet, want 502", lone.Code)
	}
	for _, want := range []string{jsonOnly.URL + "/snapshot", `Content-Type "application/json"`, queryapi.SnapshotContentType} {
		if !strings.Contains(lone.Body.String(), want) {
			t.Fatalf("502 body must name %q, got:\n%s", want, lone.Body.String())
		}
	}
}

// fleetMetricFamilies is every HELP/TYPE line the front-end's /metrics
// printed, in order, before the handler moved onto queryapi.Metrics —
// captured from that commit, less the JSON-fallback counter that went with
// the fallback, plus the idle query-buffer gauge added since — so dashboards
// keyed on names, help text or types see no other change.
const fleetMetricFamilies = `# HELP rlirfleet_instances Configured fleet instances.
# TYPE rlirfleet_instances gauge
# HELP rlirfleet_instances_up Instances that answered the last health fan-out.
# TYPE rlirfleet_instances_up gauge
# HELP rlirfleet_queries_total Front-end queries served.
# TYPE rlirfleet_queries_total counter
# HELP rlirfleet_gather_errors_total Instance fetches that failed or decoded badly.
# TYPE rlirfleet_gather_errors_total counter
# HELP rlirfleet_query_stage_seconds_total Time merged-table queries (/flows, /comparison) spent per stage; the stages do not overlap.
# TYPE rlirfleet_query_stage_seconds_total counter
# HELP rlirfleet_snapshot_bytes_total Instance /snapshot body bytes fetched.
# TYPE rlirfleet_snapshot_bytes_total counter
# HELP rlirfleet_query_buffer_bytes Bytes the idle merged-table query buffers hold for reuse.
# TYPE rlirfleet_query_buffer_bytes gauge
# HELP rlirfleet_flows Distinct flows across answering instances (exact under flow-disjoint partitioning).
# TYPE rlirfleet_flows gauge
# HELP rlirfleet_samples_total Samples ingested across answering instances.
# TYPE rlirfleet_samples_total counter
# HELP rlirfleet_records_total NetFlow records ingested across answering instances.
# TYPE rlirfleet_records_total counter
# HELP rlirfleet_uptime_seconds Time since the front-end started.
# TYPE rlirfleet_uptime_seconds gauge
# HELP rlirfleet_instance_up Per-instance reachability in the last health fan-out.
# TYPE rlirfleet_instance_up gauge
`

func TestFrontendMetricsFamiliesUnchanged(t *testing.T) {
	tf := startFleet(t, 2)
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: tf.instanceURLs(), Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	exposition := serve(front.Handler(), "/metrics").Body.String()
	var got strings.Builder
	for _, line := range strings.SplitAfter(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			got.WriteString(line)
		}
	}
	if got.String() != fleetMetricFamilies {
		t.Fatalf("/metrics HELP/TYPE lines changed:\n%s\nwant:\n%s", got.String(), fleetMetricFamilies)
	}
	for _, sample := range []string{"rlirfleet_instances", `rlirfleet_query_stage_seconds_total{stage="merge"}`, fmt.Sprintf("rlirfleet_instance_up{instance=%q}", tf.instanceURLs()[1])} {
		metricValue(t, exposition, sample)
	}
}

// TestFrontendPricesItsQuery pins the front-end's own /flows budget: the
// four stage counters in /metrics advance with every merged-table query,
// and — the stages being disjoint sections of the handler — their sum stays
// within the wall time the handler took.
func TestFrontendPricesItsQuery(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: tf.instanceURLs(), Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := front.Handler()
	stages := func() map[string]float64 {
		exposition := serve(h, "/metrics").Body.String()
		out := map[string]float64{}
		for _, stage := range []string{"fetch", "decode", "merge", "render"} {
			out[stage] = metricValue(t, exposition, fmt.Sprintf("rlirfleet_query_stage_seconds_total{stage=%q}", stage))
		}
		return out
	}

	before := stages()
	start := time.Now()
	for i := 0; i < 5; i++ {
		target := "/flows"
		if i%2 == 1 {
			target = "/comparison"
		}
		if rec := serve(h, target); rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", target, rec.Code)
		}
	}
	wall := time.Since(start).Seconds()
	after := stages()

	var sum float64
	for stage, v := range after {
		d := v - before[stage]
		if d <= 0 {
			t.Fatalf("stage %s did not advance over five queries (%g -> %g)", stage, before[stage], v)
		}
		sum += d
	}
	if sum > wall {
		t.Fatalf("stages sum to %gs, more than the %gs the handler ran", sum, wall)
	}
	if sum < wall/2 {
		t.Fatalf("stages sum to %gs of %gs handler wall time: most of a query is unpriced", sum, wall)
	}
}
