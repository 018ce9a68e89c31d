package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/memtest"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// getSnapshot serves one GET /snapshot in-process, asking for the binary
// rendering or not, and returns the decoded table with its totals and the
// raw response.
func getSnapshot(t *testing.T, s *Server, binary bool) (aggs []collector.FlowAgg, samples, records uint64, rec *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest("GET", "/snapshot", nil)
	if binary {
		req.Header.Set("Accept", queryapi.SnapshotContentType)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/snapshot status %d", rec.Code)
	}
	if binary {
		aggs, samples, records, err := queryapi.DecodeSnapshot(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("binary /snapshot: %v", err)
		}
		return aggs, samples, records, rec
	}
	var snap queryapi.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON /snapshot: %v", err)
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
	return snap.Aggs(), snap.Samples, snap.Records, rec
}

// TestSnapshotRenderingsAgree pins /snapshot's content negotiation: a plain
// GET is indented JSON (the debug view), an Accept naming the binary
// rendering gets it labelled and length-framed, and both decode to exactly
// the instance's own table and totals.
func TestSnapshotRenderingsAgree(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	smps := genSamples(5000, 40)
	s.Collector().Ingest(smps)
	s.Collector().IngestRecords([]netflow.Record{{Key: smps[0].Key, Packets: 9, Bytes: 900, First: 5, Last: 50}})
	want := s.Snapshot()

	js, jsSamples, jsRecords, jsRec := getSnapshot(t, s, false)
	if ct := jsRec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("plain /snapshot Content-Type %q", ct)
	}
	if !strings.HasPrefix(jsRec.Body.String(), "{\n  \"version\": "+strconv.Itoa(queryapi.SnapshotVersion)) {
		t.Fatalf("plain /snapshot is not the indented JSON view: %.60q", jsRec.Body.String())
	}
	bin, binSamples, binRecords, binRec := getSnapshot(t, s, true)
	if ct := binRec.Header().Get("Content-Type"); ct != queryapi.SnapshotContentType {
		t.Fatalf("binary /snapshot Content-Type %q", ct)
	}
	if cl := binRec.Header().Get("Content-Length"); cl != strconv.Itoa(binRec.Body.Len()) {
		t.Fatalf("binary /snapshot Content-Length %q for %d bytes", cl, binRec.Body.Len())
	}
	if binRec.Body.Len()*2 > jsRec.Body.Len() {
		t.Fatalf("binary rendering is %d bytes, JSON %d: not compact", binRec.Body.Len(), jsRec.Body.Len())
	}

	if !reflect.DeepEqual(js, want) || !reflect.DeepEqual(bin, want) {
		t.Fatal("a /snapshot rendering diverged from the instance's own table")
	}
	if jsSamples != 5000 || binSamples != 5000 || jsRecords != 1 || binRecords != 1 {
		t.Fatalf("totals: JSON %d/%d, binary %d/%d, want 5000/1", jsSamples, jsRecords, binSamples, binRecords)
	}
}

// TestSnapshotTotalsWithinRows pins which side of the cut /snapshot reads
// its totals on. Collector.SamplesIngested's guarantee — observe N, then
// Snapshot holds at least those N samples — only helps a handler that reads
// the totals first: read after the cut, a concurrent Ingest lets
// Snapshot.Samples exceed what the shipped rows explain. Uncapped table, so
// no sample leaves the rows for a rollup tier.
func TestSnapshotTotalsWithinRows(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := genSamples(64, 16)
			for {
				select {
				case <-stop:
					return
				default:
					s.Collector().Ingest(batch)
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	for i := 0; i < 200; i++ {
		binary := i%2 == 0
		aggs, samples, _, _ := getSnapshot(t, s, binary)
		var inRows uint64
		for j := range aggs {
			inRows += uint64(aggs[j].Est.N())
		}
		if inRows < samples {
			t.Fatalf("snapshot %d (binary=%v): totals count %d samples, rows hold only %d", i, binary, samples, inRows)
		}
	}
}

// TestFlowsBadLimit pins that /flows answers a malformed or negative limit
// with a 400.
func TestFlowsBadLimit(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	for _, q := range []string{"-1", "x", "1e3", " 5"} {
		req := httptest.NewRequest("GET", "/flows", nil)
		req.URL.RawQuery = "limit=" + q
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("limit=%q: status %d, want 400", q, rec.Code)
		}
	}
}

// plainBody renders the binary /snapshot the plain way: the collector's
// copied table, encoded by queryapi.AppendSnapshot.
func plainBody(s *Server) []byte {
	samples, records := s.ingestTotals()
	return queryapi.AppendSnapshot(nil, s.Snapshot(), samples, records)
}

// TestHeldSnapshotMatchesAppendSnapshot pins the binary /snapshot, encoded
// from rows the shards hold still, to AppendSnapshot over a copied table,
// byte for byte: at 1 to 4 shards, every shard holding flows, on a running
// collector and again on the closed one, which is read in place.
func TestHeldSnapshotMatchesAppendSnapshot(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		s, err := New(Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		smps := genSamples(6000, 90)
		s.Collector().Ingest(smps)
		s.Collector().IngestRecords([]netflow.Record{{Key: smps[1].Key, Packets: 3, Bytes: 300, First: 7, Last: 70}})
		for i, st := range s.Collector().ShardStats() {
			if st.Flows == 0 {
				t.Fatalf("%d shards: shard %d holds no flows", shards, i)
			}
		}
		for _, state := range []string{"open", "closed"} {
			if state == "closed" {
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			_, _, _, rec := getSnapshot(t, s, true)
			got, want := rec.Body.Bytes(), plainBody(s)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d shards, %s: held /snapshot is %d bytes, AppendSnapshot %d (first difference at byte %d)",
					shards, state, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestConcurrentSnapshotsUnderIngest runs six binary /snapshot readers at
// once: beside four ingesting producers, where every body must decode sorted
// with its totals inside its rows; on the quiesced collector, where every
// body must equal the plain rendering; beside an exporter streaming over TCP
// while Shutdown drains it and closes the collector under the readers, where
// every body must again hold together; and on the closed collector, where
// every body must equal the plain rendering of its final state. Reads that
// each held some shards waiting for the rest would deadlock; the test fails
// if it does not finish in time.
func TestConcurrentSnapshotsUnderIngest(t *testing.T) {
	s, err := New(Config{Listen: "127.0.0.1:0", Shards: 3, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	fetch := func() ([]byte, error) {
		req := httptest.NewRequest(http.MethodGet, "/snapshot", nil)
		req.Header.Set("Accept", queryapi.SnapshotContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d", rec.Code)
		}
		return rec.Body.Bytes(), nil
	}
	done := func() chan struct{} { c := make(chan struct{}); close(c); return c }()
	// each runs check over the bodies six readers read at once, each at
	// least 25 and on until until is closed.
	each := func(phase string, until <-chan struct{}, check func([]byte) error) {
		var wg sync.WaitGroup
		for r := 0; r < 6; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if i >= 25 {
						select {
						case <-until:
							return
						default:
						}
					}
					body, err := fetch()
					if err == nil {
						err = check(body)
					}
					if err != nil {
						t.Errorf("%s: reader %d, read %d: %v", phase, r, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	whole := func(body []byte) error {
		aggs, samples, _, err := queryapi.DecodeSnapshot(body)
		if err != nil {
			return err
		}
		var inRows uint64
		for j := range aggs {
			inRows += uint64(aggs[j].Est.N())
			if j > 0 && aggs[j-1].Key.Compare(aggs[j].Key) >= 0 {
				return fmt.Errorf("rows %d and %d out of flow-key order", j-1, j)
			}
		}
		if inRows < samples {
			return fmt.Errorf("totals count %d samples, rows hold only %d", samples, inRows)
		}
		return nil
	}
	plain := func() func([]byte) error {
		want := plainBody(s)
		return func(body []byte) error {
			if !bytes.Equal(body, want) {
				return fmt.Errorf("%d-byte body, the plain rendering %d (first difference at byte %d)", len(body), len(want), firstDiff(body, want))
			}
			return nil
		}
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		stop := make(chan struct{})
		var producers sync.WaitGroup
		for p := 0; p < 4; p++ {
			producers.Add(1)
			go func() {
				defer producers.Done()
				batch := genSamples(256, 40+p*50)
				for {
					select {
					case <-stop:
						return
					default:
						s.Collector().Ingest(batch)
					}
				}
			}()
		}
		each("under ingest", done, whole)
		close(stop)
		producers.Wait()
		each("quiesced", done, plain())
		quiet := s.Collector().SamplesIngested()

		cl, err := Dial("tcp", s.Addr().String(), 0)
		if err != nil {
			t.Error(err)
			return
		}
		const batches, perBatch = 200, 256
		go func() {
			defer cl.Close()
			batch := genSamples(perBatch, 400)
			for i := 0; i < batches && cl.SendSamples(batch) == nil; i++ {
			}
		}()
		for s.Collector().SamplesIngested() == quiet { // accepted: Shutdown drains it
			time.Sleep(time.Millisecond)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if err := s.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		each("closing under ingest", closed, whole)
		if got, want := s.Collector().SamplesIngested(), quiet+batches*perBatch; got != want {
			t.Errorf("Shutdown drained %d samples from the exporter, want %d", got-quiet, want-quiet)
		}
		each("closed", done, plain())
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent /snapshot readers did not finish in 60 s: deadlocked")
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and discards
// the body, so a measured request allocates only what the handler does.
type reusedWriter struct{ h http.Header }

func (w reusedWriter) Header() http.Header         { return w.h }
func (w reusedWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w reusedWriter) WriteHeader(int)             {}

// TestZeroAllocSnapshotBody gates the binary /snapshot's garbage in steady
// state at GOMAXPROCS 2 or more, with the shards holding still on their own
// goroutines: at most maxSnapshotMallocs per body over a 4 000-flow table —
// its Content-Type and Content-Length values and the length's digits, and
// nothing per row or per shard. A copy of the table, or sort scratch the
// shards did not keep, allocates on every query.
func TestZeroAllocSnapshotBody(t *testing.T) {
	const maxSnapshotMallocs = 3
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.Collector().Ingest(genSamples(40000, 4000))
	w := reusedWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/snapshot", nil)
	req.Header.Set("Accept", queryapi.SnapshotContentType)
	if n := memtest.MallocsPerRun(max(2, runtime.GOMAXPROCS(0)), 50, func() { s.handleSnapshot(w, req) }); n > maxSnapshotMallocs {
		t.Fatalf("a binary /snapshot of %d flows allocates %d times, want at most %d", s.Collector().Flows(), n, maxSnapshotMallocs)
	}
}
