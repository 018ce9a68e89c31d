package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// genSamples builds a deterministic stream over the given flow count.
func genSamples(n, flows int) []collector.Sample {
	out := make([]collector.Sample, n)
	for i := range out {
		f := i % flows
		out[i] = collector.Sample{
			Key: packet.FlowKey{
				Src: packet.Addr(0x0a000000 + f), Dst: packet.Addr(0x0b000000 + f/7),
				SrcPort: uint16(1024 + f), DstPort: 443, Proto: 6,
			},
			Est:  time.Duration(100+i%900) * time.Microsecond,
			True: time.Duration(110+i%900) * time.Microsecond,
		}
	}
	return out
}

// waitIngested polls until the server has ingested want samples.
func waitIngested(t *testing.T, s *Server, want uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d samples ingested", want), func() bool {
		return s.Collector().SamplesIngested() >= want
	})
}

// waitFor polls cond with a deadline — the sync point for state the
// connection handler updates after the collector counters (router
// aggregates, trailing frames).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(t *testing.T, s *Server, path string, v any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
}

// TestServiceEndToEnd exercises the full TCP path: hello, samples, records,
// and every HTTP endpoint.
func TestServiceEndToEnd(t *testing.T) {
	s, err := New(Config{Listen: "127.0.0.1:0", Shards: 4, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	samples := genSamples(2048, 64)
	c, err := Dial("tcp", s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("tor3.0"); err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if err := c.Add(smp.Key, smp.Est, smp.True); err != nil {
			t.Fatal(err)
		}
	}
	recs := []netflow.Record{{
		Key:     samples[0].Key,
		First:   simtime.FromDuration(time.Millisecond),
		Last:    simtime.FromDuration(5 * time.Millisecond),
		Packets: 32, Bytes: 48000,
	}}
	if err := c.SendRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, s, uint64(len(samples)))
	// The records frame trails the samples and router aggregates update
	// after the collector counters — wait for both before asserting.
	waitFor(t, "the records frame", func() bool { return s.Collector().RecordsIngested() >= 1 })
	waitFor(t, "router aggregates to settle", func() bool {
		r := s.routerFor("tor3.0")
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.samples == uint64(len(samples)) && r.records == 1
	})

	var flows []FlowJSON
	getJSON(t, s, "/flows", &flows)
	if len(flows) != 64 {
		t.Fatalf("/flows has %d rows, want 64", len(flows))
	}
	var total int64
	for _, f := range flows {
		total += f.Samples
	}
	if total != int64(len(samples)) {
		t.Fatalf("/flows accounts %d samples, want %d", total, len(samples))
	}

	var limited []FlowJSON
	getJSON(t, s, "/flows?limit=5", &limited)
	if len(limited) != 5 {
		t.Fatalf("/flows?limit=5 has %d rows", len(limited))
	}

	var routers []RouterJSON
	getJSON(t, s, "/routers", &routers)
	// Hello arrived before any data, so the connection never materialized a
	// fallback remote-address row — only the declared identity exists
	// (reconnecting exporters must not grow /routers without bound).
	if len(routers) != 1 {
		t.Fatalf("/routers has %d rows, want just the declared identity: %+v", len(routers), routers)
	}
	named := routers[0]
	if named.Router != "tor3.0" || named.Samples != uint64(len(samples)) || named.Records != 1 {
		t.Fatalf("named router row wrong: %+v", named)
	}
	// The row's tails are a sketch's quantiles over the router's estimates.
	var want stats.Sketch
	for _, smp := range samples {
		want.Record(smp.Est)
	}
	if named.EstP50Ns != int64(want.Quantile(0.5)) || named.EstP99Ns != int64(want.Quantile(0.99)) {
		t.Fatalf("/routers est_p50_ns/est_p99_ns = %d/%d, want the sketch's %d/%d",
			named.EstP50Ns, named.EstP99Ns, int64(want.Quantile(0.5)), int64(want.Quantile(0.99)))
	}

	var cmp []ComparisonJSON
	getJSON(t, s, "/comparison", &cmp)
	if len(cmp) != 1 || cmp[0].Estimator != "rli" || cmp[0].Flows != 64 {
		t.Fatalf("/comparison: %+v", cmp)
	}
	if cmp[0].MedianRelErr == nil || *cmp[0].MedianRelErr <= 0 {
		t.Fatalf("median rel err missing: %+v", cmp[0])
	}

	var health HealthJSON
	getJSON(t, s, "/healthz", &health)
	if health.Status != "ok" || health.Samples != uint64(len(samples)) || health.Records != 1 {
		t.Fatalf("/healthz: %+v", health)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("rlird_samples_total %d", len(samples)),
		"rlird_records_total 1",
		"rlird_flows 64",
		"rlird_ingest_samples_per_second",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServiceUnixSocket covers the Unix-socket ingest listener.
func TestServiceUnixSocket(t *testing.T) {
	sock := t.TempDir() + "/rlird.sock"
	s, err := New(Config{Unix: sock, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial("unix", sock, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := genSamples(512, 8)
	if err := c.SendSamples(samples); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitIngested(t, s, uint64(len(samples)))
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := len(s.Snapshot()); got != 8 {
		t.Fatalf("final snapshot has %d flows, want 8", got)
	}
}

// TestServiceRejectsGarbage proves a codec error ends only the offending
// connection and is counted, leaving the service healthy.
func TestServiceRejectsGarbage(t *testing.T) {
	s, err := New(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The service closes the connection on the decode error; reads drain to
	// EOF eventually.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, readErr := conn.Read(buf)
	if readErr == nil {
		t.Fatal("service answered garbage instead of closing")
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.decodeErrs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode error not counted")
		}
		time.Sleep(time.Millisecond)
	}

	// The plane still ingests.
	c, err := Dial("tcp", s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendSamples(genSamples(16, 4)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitIngested(t, s, 16)
}

// TestServiceGracefulShutdownUnderLoad stops the service while four
// connections are streaming flat out: shutdown must return promptly
// (force-closing the writers), never panic the collector, and leave a
// queryable final state.
func TestServiceGracefulShutdownUnderLoad(t *testing.T) {
	s, err := New(Config{Listen: "127.0.0.1:0", Shards: 4, DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const conns = 4
	var wg sync.WaitGroup
	var sent atomic.Uint64
	stream := genSamples(4096, 256)
	for i := 0; i < conns; i++ {
		c, err := Dial("tcp", s.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			defer c.conn.Close()
			for {
				if err := c.SendSamples(stream); err != nil {
					return // force-closed by shutdown
				}
				sent.Add(uint64(len(stream)))
			}
		}(c)
	}

	// Let real load build up before pulling the plug.
	waitIngested(t, s, uint64(len(stream))*2)

	start := time.Now()
	err = s.Shutdown(context.Background())
	elapsed := time.Since(start)
	wg.Wait()

	// Writers never stop on their own, so the drain window must have
	// force-closed them — and reported it.
	if err == nil {
		t.Error("Shutdown reported a clean drain under unbounded load")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; the drain bound is not working", elapsed)
	}

	// The final state is consistent and queryable after shutdown.
	snap := s.Snapshot()
	if len(snap) != 256 {
		t.Fatalf("final snapshot has %d flows, want 256", len(snap))
	}
	var health HealthJSON
	getJSON(t, s, "/healthz", &health)
	if health.Status != "stopped" {
		t.Fatalf("post-shutdown /healthz status %q", health.Status)
	}
	// A second Shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeConnInProcess drives the in-process (listener-less) path over a
// net.Pipe, the embedding the examples use.
func TestServeConnInProcess(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	server, client := net.Pipe()
	s.ServeConn(server)
	c := NewClient(client, 0)
	if err := c.Hello("pipe0"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendSamples(genSamples(128, 4)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitIngested(t, s, 128)
	var routers []RouterJSON
	getJSON(t, s, "/routers", &routers)
	found := false
	for _, r := range routers {
		found = found || r.Router == "pipe0"
	}
	if !found {
		t.Fatalf("pipe0 missing from /routers: %+v", routers)
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.json"
	if err := writeFile(good, `{"listen": "127.0.0.1:7171", "shards": 8, "window_ns": 5000000000}`); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(good)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:7171" || cfg.Shards != 8 || cfg.Window != 5*time.Second {
		t.Fatalf("parsed %+v", cfg)
	}

	bad := dir + "/bad.json"
	if err := writeFile(bad, `{"listne": "oops"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("misspelled config field accepted")
	}
}

// TestLoadConfigRejectsMalformed: a config file is exactly one JSON object
// with no negative size or duration. Trailing data, a second object and a
// negative value (a negative max_flows once meant "unbounded") are errors
// naming the file, and New refuses a negative field too.
func TestLoadConfigRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ body, want string }{
		{`{"shards":2} trailing junk`, "after the config object"},
		{`{"shards":2}{"shards":9}`, "after the config object"},
		{`{"max_flows": -5}`, "max_flows -5"},
		{`{"shards": -3}`, "shards -3"},
		{`{"depth": -1}`, "depth -1"},
		{`{"max_frame_records": -7}`, "max_frame_records -7"},
		{`{"flow_window_ns": -1}`, "flow_window_ns -1"},
		{`{"drain_timeout_ns": -1}`, "drain_timeout_ns -1"},
	} {
		path := dir + "/c.json"
		if err := writeFile(path, tc.body); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadConfig(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("LoadConfig(%s) = %+v, %v; want an error naming the file and %q", tc.body, cfg, err, tc.want)
		}
	}
	// Whitespace after the object is not data.
	path := dir + "/ok.json"
	if err := writeFile(path, "{\"shards\": 2}\n\n"); err != nil {
		t.Fatal(err)
	}
	if cfg, err := LoadConfig(path); err != nil || cfg.Shards != 2 {
		t.Fatalf("LoadConfig(trailing newline) = %+v, %v", cfg, err)
	}
	for _, cfg := range []Config{{MaxFlows: -5}, {Shards: -3}, {Depth: -1}, {MaxFrameRecords: -7}, {Window: -1}} {
		if s, err := New(cfg); err == nil {
			s.Shutdown(context.Background())
			t.Errorf("New(%+v) started", cfg)
		}
	}
}

// BenchmarkServiceIngest4Conns is the service soak in isolation: four
// concurrent connections streaming pre-encoded sample frames over loopback
// TCP into the full service path (frame reader -> router aggregates ->
// sharded collector), reported as samples/s.
func BenchmarkServiceIngest4Conns(b *testing.B) {
	s, err := New(Config{Listen: "127.0.0.1:0", Shards: 4, Depth: 64})
	if err != nil {
		b.Fatal(err)
	}
	// Safety net for b.Fatal paths; the normal path shuts down explicitly
	// below and this second call is an idempotent no-op.
	defer s.Shutdown(context.Background())

	const (
		conns      = 4
		batch      = 512
		framesPerC = 8
		perChunk   = batch * framesPerC
	)
	// Pre-encode each connection's wire chunk: 8 frames of 512 samples.
	chunks := make([][]byte, conns)
	for i := range chunks {
		var wire []byte
		samples := genSamples(perChunk, 256)
		for f := 0; f < framesPerC; f++ {
			wire = collector.AppendSamples(wire, samples[f*batch:(f+1)*batch])
		}
		chunks[i] = wire
	}

	clients := make([]*Client, conns)
	for i := range clients {
		if clients[i], err = Dial("tcp", s.Addr().String(), 0); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < b.N; n++ {
				if _, err := clients[i].conn.Write(chunks[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := uint64(b.N) * conns * uint64(perChunk)
	for s.Collector().SamplesIngested() < total {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/s")
	// Close the connections before Shutdown or the drain window waits out
	// its full timeout on four idle-but-open handlers — pure teardown sleep
	// multiplied by every b.N scaling pass.
	for _, c := range clients {
		c.Close()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}
