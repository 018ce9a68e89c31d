package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
)

// fakeSink records everything a worker sends it, optionally failing.
type fakeSink struct {
	mu      sync.Mutex
	hello   string
	samples []collector.Sample
	records []netflow.Record
	frames  int
	flushes int
	closed  bool
	failN   int // fail the next N sends
}

func (s *fakeSink) Hello(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hello = name
	return nil
}

func (s *fakeSink) SendSamples(b []collector.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		return errors.New("fake send failure")
	}
	s.samples = append(s.samples, b...)
	s.frames++
	return nil
}

func (s *fakeSink) SendRecords(b []netflow.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		return errors.New("fake send failure")
	}
	s.records = append(s.records, b...)
	s.frames++
	return nil
}

func (s *fakeSink) Flush() error { s.mu.Lock(); defer s.mu.Unlock(); s.flushes++; return nil }
func (s *fakeSink) Close() error { s.mu.Lock(); defer s.mu.Unlock(); s.closed = true; return nil }

// sinkGrid tracks every sink a test router dialed, keyed by endpoint and
// dial sequence.
type sinkGrid struct {
	mu    sync.Mutex
	dials map[string][]*fakeSink
	fail  map[string]int // endpoint -> remaining dial failures
}

func newSinkGrid() *sinkGrid {
	return &sinkGrid{dials: make(map[string][]*fakeSink), fail: make(map[string]int)}
}

func (g *sinkGrid) dial(endpoint string, conn int) (Sink, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fail[endpoint] > 0 {
		g.fail[endpoint]--
		return nil, fmt.Errorf("fake dial failure to %s", endpoint)
	}
	s := &fakeSink{}
	g.dials[endpoint] = append(g.dials[endpoint], s)
	return s, nil
}

func key(i uint32) packet.FlowKey {
	return packet.FlowKey{Src: packet.Addr(i), Dst: packet.Addr(i + 1), SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
}

func sampleStream(n int) []collector.Sample {
	out := make([]collector.Sample, n)
	for i := range out {
		out[i] = collector.Sample{Key: key(uint32(i % 17)), Est: time.Duration(i) * time.Microsecond, True: time.Duration(i) * time.Microsecond}
	}
	return out
}

// TestRouterPartitionsAndPreservesFlowOrder routes a stream across 3
// endpoints × 2 conns and checks (a) every sample landed on the sink
// SinkIndex names, (b) per-flow order is preserved on that sink, and
// (c) nothing was lost.
func TestRouterPartitionsAndPreservesFlowOrder(t *testing.T) {
	grid := newSinkGrid()
	r, err := NewRouter(Config{
		Endpoints:        []string{"a", "b", "c"},
		ConnsPerEndpoint: 2,
		Dial:             grid.dial,
		Name:             "test",
		Batch:            8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := sampleStream(500)
	for off := 0; off < len(stream); off += 37 {
		end := off + 37
		if end > len(stream) {
			end = len(stream)
		}
		r.RouteSamples(stream[off:end])
	}
	recs := []netflow.Record{
		{Key: key(2), Packets: 3, Bytes: 100},
		{Key: key(9), Packets: 1, Bytes: 40},
	}
	r.RouteRecords(recs)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	eps := []string{"a", "b", "c"}
	total := 0
	for e, ep := range eps {
		for c, s := range grid.dials[ep] {
			wantName := fmt.Sprintf("test-%d", e*2+c)
			if s.hello != wantName {
				t.Fatalf("endpoint %s conn %d hello %q, want %q", ep, c, s.hello, wantName)
			}
			if !s.closed {
				t.Fatalf("endpoint %s conn %d not closed", ep, c)
			}
			// Every sample belongs here, and same-flow samples are in
			// stream order.
			lastIdx := make(map[packet.FlowKey]time.Duration)
			for _, smp := range s.samples {
				we, wc := SinkIndex(smp.Key, 3, 2)
				if we != e || wc != c {
					t.Fatalf("sample for %v landed on (%d,%d), want (%d,%d)", smp.Key, e, c, we, wc)
				}
				if prev, ok := lastIdx[smp.Key]; ok && smp.Est < prev {
					t.Fatalf("flow %v reordered: %v after %v", smp.Key, smp.Est, prev)
				}
				lastIdx[smp.Key] = smp.Est
			}
			total += len(s.samples)
			for _, rec := range s.records {
				we, wc := SinkIndex(rec.Key, 3, 2)
				if we != e || wc != c {
					t.Fatalf("record for %v landed on (%d,%d), want (%d,%d)", rec.Key, e, c, we, wc)
				}
			}
		}
	}
	if total != len(stream) {
		t.Fatalf("sinks hold %d samples, want %d", total, len(stream))
	}

	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d endpoints, want 3", len(stats))
	}
	var sent, recsSent uint64
	for _, st := range stats {
		sent += st.SamplesSent
		recsSent += st.RecordsSent
		if st.Queued != 0 {
			t.Fatalf("endpoint %s still queued %d after Close", st.Endpoint, st.Queued)
		}
		if st.Errors != 0 || st.Dropped != 0 {
			t.Fatalf("endpoint %s errors=%d dropped=%d on a clean run", st.Endpoint, st.Errors, st.Dropped)
		}
	}
	if sent != uint64(len(stream)) || recsSent != uint64(len(recs)) {
		t.Fatalf("counters: %d samples / %d records, want %d / %d", sent, recsSent, len(stream), len(recs))
	}
}

// TestRouterBatchBounds checks frames never exceed Config.Batch.
func TestRouterBatchBounds(t *testing.T) {
	grid := newSinkGrid()
	r, err := NewRouter(Config{Endpoints: []string{"a"}, Dial: grid.dial, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One flow so everything serializes through one sink in one part.
	batch := make([]collector.Sample, 11)
	for i := range batch {
		batch[i] = collector.Sample{Key: key(1), Est: time.Duration(i)}
	}
	r.RouteSamples(batch)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	s := grid.dials["a"][0]
	if len(s.samples) != 11 {
		t.Fatalf("sink holds %d samples, want 11", len(s.samples))
	}
	if want := 3; s.frames != want { // 4+4+3
		t.Fatalf("sink saw %d frames, want %d", s.frames, want)
	}
}

// TestRouterRedialsWithBackoff kills the first sink mid-stream: the worker
// must re-dial, replay the failed batch on the new connection, and count
// the error and the reconnect.
func TestRouterRedialsWithBackoff(t *testing.T) {
	grid := newSinkGrid()
	r, err := NewRouter(Config{
		Endpoints:     []string{"a"},
		Dial:          grid.dial,
		Name:          "test",
		RedialBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := grid.dials["a"][0]
	r.RouteSamples([]collector.Sample{{Key: key(1), Est: 1}})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	first.mu.Lock()
	first.failN = 1 // next send on the original sink fails
	first.mu.Unlock()
	r.RouteSamples([]collector.Sample{{Key: key(1), Est: 2}, {Key: key(2), Est: 3}})
	if err := r.Close(); err != nil {
		t.Fatalf("close after recovered redial: %v", err)
	}
	if n := len(grid.dials["a"]); n != 2 {
		t.Fatalf("dialed %d sinks, want 2 (original + redial)", n)
	}
	second := grid.dials["a"][1]
	if second.hello != "test-0" {
		t.Fatalf("redialed sink hello %q, want re-announced identity", second.hello)
	}
	if len(second.samples) != 2 {
		t.Fatalf("redialed sink got %d samples, want the replayed batch of 2", len(second.samples))
	}
	st := r.Stats()[0]
	if st.Errors == 0 || st.Reconnects != 1 || st.Dropped != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	if st.SamplesSent != 3 {
		t.Fatalf("sent %d samples, want 3", st.SamplesSent)
	}
}

// TestRouterDropsAfterRedialBudget exhausts the redial budget: the batch is
// dropped (counted), the terminal error surfaces from Close, and later
// batches are dropped without dialing.
func TestRouterDropsAfterRedialBudget(t *testing.T) {
	grid := newSinkGrid()
	r, err := NewRouter(Config{
		Endpoints:      []string{"a"},
		Dial:           grid.dial,
		RedialAttempts: 2,
		RedialBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid.mu.Lock()
	grid.fail["a"] = 1000 // every redial fails
	grid.mu.Unlock()
	first := grid.dials["a"][0]
	first.mu.Lock()
	first.failN = 1000 // every send on the original sink fails
	first.mu.Unlock()

	r.RouteSamples([]collector.Sample{{Key: key(1), Est: 1}})
	if err := r.Flush(); err == nil {
		t.Fatal("flush returned nil after a dead sink")
	}
	r.RouteSamples([]collector.Sample{{Key: key(2), Est: 2}, {Key: key(3), Est: 3}})
	err = r.Close()
	if err == nil {
		t.Fatal("close returned nil after a dead sink")
	}
	st := r.Stats()[0]
	if st.Dropped != 3 {
		t.Fatalf("dropped %d, want 3 (failed batch + post-failure batch)", st.Dropped)
	}
	if st.Errors < 3 { // initial send + 2 redial attempts at minimum
		t.Fatalf("errors %d, want >= 3", st.Errors)
	}
	if st.SamplesSent != 0 {
		t.Fatalf("sent %d samples on a dead endpoint", st.SamplesSent)
	}
}

// TestRouterConfigErrors pins the constructor's validation.
func TestRouterConfigErrors(t *testing.T) {
	if _, err := NewRouter(Config{Dial: newSinkGrid().dial}); err == nil {
		t.Fatal("no endpoints accepted")
	}
	if _, err := NewRouter(Config{Endpoints: []string{"a"}}); err == nil {
		t.Fatal("nil Dial accepted")
	}
	grid := newSinkGrid()
	grid.fail["b"] = 1
	if _, err := NewRouter(Config{Endpoints: []string{"a", "b"}, Dial: grid.dial}); err == nil {
		t.Fatal("eager dial failure not surfaced")
	}
	// The already-dialed sink must have been closed on the failed path.
	grid.mu.Lock()
	defer grid.mu.Unlock()
	for _, s := range grid.dials["a"] {
		if !s.closed {
			t.Fatal("sink leaked by failed NewRouter")
		}
	}
}

// TestPartitionSinkIndexConsistent pins that SinkIndex's endpoint level IS
// Partition — the router and anything that re-derives ownership with
// Partition agree by construction.
func TestPartitionSinkIndexConsistent(t *testing.T) {
	for i := uint32(0); i < 1000; i++ {
		k := key(i)
		for _, n := range []int{1, 2, 3, 4, 7} {
			e, _ := SinkIndex(k, n, 3)
			if e != Partition(k, n) {
				t.Fatalf("SinkIndex endpoint %d != Partition %d for n=%d", e, Partition(k, n), n)
			}
		}
		// One endpoint degenerates to the historical loadgen assignment.
		_, c := SinkIndex(k, 1, 4)
		if c != int(k.FastHash()%4) {
			t.Fatalf("single-endpoint conn %d != FastHash mod conns %d", c, k.FastHash()%4)
		}
	}
}

// discardSink counts what it is sent and keeps nothing.
type discardSink struct{ samples, records atomic.Uint64 }

func (s *discardSink) Hello(string) error { return nil }
func (s *discardSink) SendSamples(b []collector.Sample) error {
	s.samples.Add(uint64(len(b)))
	return nil
}
func (s *discardSink) SendRecords(b []netflow.Record) error {
	s.records.Add(uint64(len(b)))
	return nil
}
func (s *discardSink) Flush() error { return nil }
func (s *discardSink) Close() error { return nil }

// TestZeroAllocRouteSteadyState is the exporter side's garbage gate, beside
// the collector's three: routing a 512-sample batch and a 64-record batch
// across a 2 × 2 sink grid — partition into the workers' pooled buffers,
// enqueue, send, hand the buffers back — allocates nothing once the pools
// hold a queue's worth of buffers grown to the parts' size. Before the pools
// every batch regrew each part from nil (growslice ≈ 4 % of an exporter loop).
func TestZeroAllocRouteSteadyState(t *testing.T) {
	var sink discardSink
	r, err := NewRouter(Config{
		Endpoints:        []string{"a", "b"},
		ConnsPerEndpoint: 2,
		Dial:             func(string, int) (Sink, error) { return &sink, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 512
	stream := make([]collector.Sample, 1<<14)
	for i := range stream {
		stream[i] = collector.Sample{Key: key(uint32(i * 7919 % 2048)), Est: time.Duration(i)}
	}
	recs := make([]netflow.Record, 64)
	for i := range recs {
		recs[i] = netflow.Record{Key: key(uint32(i * 31)), Packets: 1, Bytes: 64}
	}
	off, batches := 0, uint64(0)
	route := func() {
		r.RouteSamples(stream[off : off+size])
		r.RouteRecords(recs)
		off = (off + size) % (len(stream) - size)
		batches++
	}
	for i := 0; i < 2000; i++ { // warm up: pools filled, buffers at their final capacity
		route()
	}
	if err := r.Flush(); err != nil { // drain: every buffer back in its pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("steady-state Route* allocated %.1f times per batch, want 0", allocs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.samples.Load(), batches*size; got != want {
		t.Fatalf("sinks saw %d samples, want %d", got, want)
	}
	if got, want := sink.records.Load(), batches*uint64(len(recs)); got != want {
		t.Fatalf("sinks saw %d records, want %d", got, want)
	}
}
