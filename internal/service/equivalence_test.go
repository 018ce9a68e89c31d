// External test package: internal/scenario runs its fleet specs on this
// package's Server, so a package-internal test importing scenario would be
// an import cycle.
package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
)

// partitionByFlow splits a sample stream across n connections by flow hash,
// preserving per-flow order — the collector's determinism contract requires
// all of one flow's samples to arrive through one producer, and this is the
// same partitioning cmd/loadgen uses.
func partitionByFlow(samples []collector.Sample, n int) [][]collector.Sample {
	parts := make([][]collector.Sample, n)
	for _, smp := range samples {
		i := int(smp.Key.FastHash() % uint64(n))
		parts[i] = append(parts[i], smp)
	}
	return parts
}

// TestServiceMatchesBatchEngine is the tentpole equivalence: a registered
// scenario's export stream, replayed over four concurrent connections into
// a live service, must answer /flows and /comparison with exactly the batch
// engine's numbers for the same seed. Welford accumulators are
// order-sensitive across flows but the collector shards per flow, so
// per-flow aggregates are bit-identical no matter how the four connections
// interleave.
func TestServiceMatchesBatchEngine(t *testing.T) {
	sc, ok := scenario.Get("baseline-tandem")
	if !ok {
		t.Fatal("baseline-tandem not registered")
	}
	tr, err := scenario.Export(sc.Spec, sc.Spec.Seed)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if len(tr.Samples) == 0 {
		t.Fatal("empty export")
	}

	s, err := service.New(service.Config{Listen: "127.0.0.1:0", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const conns = 4
	parts := partitionByFlow(tr.Samples, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c, err := service.Dial("tcp", s.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *service.Client) {
			defer wg.Done()
			defer c.Close()
			if err := c.Hello(fmt.Sprintf("replay-%d", i)); err != nil {
				t.Error(err)
				return
			}
			for _, smp := range parts[i] {
				if err := c.Add(smp.Key, smp.Est, smp.True); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	waitIngested(t, s, uint64(len(tr.Samples)))

	// /flows ≡ the batch run's fleet table, field for field.
	var flows []service.FlowJSON
	getJSON(t, s, "/flows", &flows)
	fleet := tr.Result.Fleet
	if len(flows) != len(fleet) {
		t.Fatalf("/flows has %d rows, batch fleet has %d", len(flows), len(fleet))
	}
	for i := range fleet {
		want := queryapi.FlowRow(&fleet[i])
		if flows[i] != want {
			t.Fatalf("flow %d diverged:\nservice %+v\nbatch   %+v", i, flows[i], want)
		}
	}

	// /comparison ≡ the streaming comparison of the batch fleet.
	var got []service.ComparisonJSON
	getJSON(t, s, "/comparison", &got)
	want := queryapi.ComparisonRow(measure.CompareFlowAggs("rli", fleet))
	if len(got) != 1 {
		t.Fatalf("/comparison has %d rows", len(got))
	}
	if got[0].Estimator != want.Estimator || got[0].Flows != want.Flows ||
		got[0].Samples != want.Samples || got[0].AggMeanNs != want.AggMeanNs ||
		got[0].AggSamples != want.AggSamples ||
		!floatPtrEq(got[0].MedianRelErr, want.MedianRelErr) ||
		!floatPtrEq(got[0].P99RelErr, want.P99RelErr) ||
		!floatPtrEq(got[0].AggRelErr, want.AggRelErr) {
		t.Fatalf("/comparison diverged:\nservice %s\nbatch   %s", cmpString(got[0]), cmpString(want))
	}

	// The batch run's own median relative error must survive the trip: the
	// scenario invariant bound applies to the streamed view too.
	if *got[0].MedianRelErr > 0.60 {
		t.Fatalf("streamed median rel err %.4f outside the scenario bound", *got[0].MedianRelErr)
	}
}

func floatPtrEq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func cmpString(c service.ComparisonJSON) string {
	f := func(p *float64) string {
		if p == nil {
			return "null"
		}
		return fmt.Sprintf("%.17g", *p)
	}
	return fmt.Sprintf("{est=%s flows=%d samples=%d med=%s p99=%s aggMean=%d aggN=%d aggErr=%s}",
		c.Estimator, c.Flows, c.Samples, f(c.MedianRelErr), f(c.P99RelErr), c.AggMeanNs, c.AggSamples, f(c.AggRelErr))
}

// waitIngested polls until the server has ingested want samples.
func waitIngested(t *testing.T, s *service.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Collector().SamplesIngested() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d samples ingested", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(t *testing.T, s *service.Server, path string, v any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
}
