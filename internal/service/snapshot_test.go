package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/netmeasure/rlir/internal/collector"
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
