package fleet_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/memtest"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/service"
)

// getSnapshot fetches an instance's binary /snapshot body, as the front-end
// asks for it.
func getSnapshot(t testing.TB, base string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", queryapi.SnapshotContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != queryapi.SnapshotContentType {
		t.Fatalf("%s/snapshot answered %d %q", base, resp.StatusCode, ct)
	}
	return body
}

// referenceAnswers renders /flows and /comparison the plain way: every
// instance's /snapshot decoded on its own, folded by collector.Merge, and
// written by the shared renderers into fresh buffers.
func referenceAnswers(t testing.TB, urls []string) (flows, comparison []byte, merged []collector.FlowAgg, rows int) {
	t.Helper()
	parts := make([][]collector.FlowAgg, len(urls))
	for i, u := range urls {
		aggs, _, _, err := queryapi.DecodeSnapshot(getSnapshot(t, u))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = aggs
		rows += len(aggs)
	}
	merged = collector.Merge(parts...)
	f, c := httptest.NewRecorder(), httptest.NewRecorder()
	queryapi.WriteFlows(f, merged, -1, nil)
	queryapi.WriteJSON(c, http.StatusOK, []queryapi.ComparisonJSON{queryapi.ComparisonRow(measure.CompareFlowAggs("rli", merged))})
	return f.Body.Bytes(), c.Body.Bytes(), merged, rows
}

// TestFrontendFoldsSharedKeys reaches the fold every flow-disjoint test
// skips: some flows' samples land on both instances, so the merge folds
// equal keys — earliest instance first — into rows whose sketch windows are
// the decoded bodies' own. /flows and /comparison must equal, byte for
// byte, collector.Merge of the two instances' /snapshots rendered plainly;
// and again after a second round of ingest, whose larger table the same
// front-end decodes and merges in the storage the first query left behind.
func TestFrontendFoldsSharedKeys(t *testing.T) {
	var servers [2]*service.Server
	urls := make([]string, len(servers))
	for i := range servers {
		s, err := service.New(service.Config{HTTP: "127.0.0.1:0", Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		servers[i], urls[i] = s, "http://"+s.HTTPAddr().String()
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := front.Handler()

	rng := rand.New(rand.NewSource(29))
	key := func(j int) packet.FlowKey {
		return packet.FlowKey{Src: packet.Addr(0x0a000000 + j), Dst: 0x0a800001, SrcPort: uint16(2000 + j), DstPort: 443, Proto: packet.ProtoTCP}
	}
	// Flow j goes to instance j%3 (2 meaning both). Instance 1's delays span
	// a wider range than instance 0's, so a fold into instance 0's row both
	// adds into its window and widens it.
	ingest := func(flows, perFlow int) {
		var batches [2][]collector.Sample
		for j := 0; j < flows; j++ {
			for i := range batches {
				if j%3 != i && j%3 != 2 {
					continue
				}
				for k := 0; k < perFlow; k++ {
					est := time.Duration(50_000 + rng.Intn(20_000*(1+i*40)))
					batches[i] = append(batches[i], collector.Sample{Key: key(j), Est: est, True: est + time.Duration(rng.Intn(5_000))})
				}
			}
		}
		for i, s := range servers {
			s.Collector().Ingest(batches[i])
		}
	}

	for round, grow := range []struct{ flows, perFlow int }{{60, 8}, {150, 5}} {
		ingest(grow.flows, grow.perFlow)
		wantFlows, wantCmp, merged, rows := referenceAnswers(t, urls)
		if shared := rows - len(merged); shared < grow.flows/3 {
			t.Fatalf("round %d: %d of %d merged flows are shared, want at least %d", round, shared, len(merged), grow.flows/3)
		}
		for _, c := range []struct {
			path string
			want []byte
		}{{"/flows", wantFlows}, {"/comparison", wantCmp}, {"/flows", wantFlows}} {
			rec := serve(h, c.path)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), c.want) {
				t.Fatalf("round %d: %s answered %d with %d bytes, want collector.Merge's %d bytes (first difference at byte %d)",
					round, c.path, rec.Code, rec.Body.Len(), len(c.want), firstDiff(rec.Body.Bytes(), c.want))
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

// TestZeroAllocMergedTable gates a merged-table query's garbage after the
// fan-out: over two captured /snapshot bodies, with buffers warmed by one
// query, decode + merge + the /flows row encoder, and decode + merge + the
// /comparison fold, each allocate nothing — per row or per query. It counts
// at GOMAXPROCS 2 or more, where the /flows body renders in parts on helper
// goroutines; testing.AllocsPerRun would pin it to one part.
func TestZeroAllocMergedTable(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)
	urls := tf.instanceURLs()
	bodies := make([][]byte, len(urls))
	for i, u := range urls {
		bodies[i] = getSnapshot(t, u)
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	served := serve(front.Handler(), "/flows").Body.Bytes()
	for _, s := range tf.servers { // nothing else in the process allocates while it is measured
		_ = s.Shutdown(context.Background())
	}

	flows, compare := front.QueryStages(bodies)
	body, err := flows()
	if err != nil || !bytes.Equal(body, served) {
		t.Fatalf("decode + merge + render gave %d bytes (%v), the front-end serves %d", len(body), err, len(served))
	}
	cmp, err := compare()
	if want := measure.CompareFlowAggs("rli", tr.Result.Fleet); err != nil || cmp.Flows != want.Flows || cmp.AggMean != want.AggMean {
		t.Fatalf("decode + merge + compare gave %+v (%v), the batch engine %+v", cmp, err, want)
	}
	for name, query := range map[string]func(){
		"flows":      func() { _, _ = flows() },
		"comparison": func() { _, _ = compare() },
	} {
		if n := memtest.MallocsPerRun(max(2, runtime.GOMAXPROCS(0)), 20, query); n != 0 {
			t.Errorf("%s over %d flows: decode, merge and render allocate %v times per query, want 0", name, len(tr.Result.Fleet), n)
		}
	}
}
