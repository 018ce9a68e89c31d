package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
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

	s, err := New(Config{Listen: "127.0.0.1:0", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const conns = 4
	parts := partitionByFlow(tr.Samples, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c, err := Dial("tcp", s.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
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
	var flows []FlowJSON
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
	var got []ComparisonJSON
	getJSON(t, s, "/comparison", &got)
	want := comparisonJSON(measure.CompareFlowAggs("rli", fleet))
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

func cmpString(c ComparisonJSON) string {
	f := func(p *float64) string {
		if p == nil {
			return "null"
		}
		return fmt.Sprintf("%.17g", *p)
	}
	return fmt.Sprintf("{est=%s flows=%d samples=%d med=%s p99=%s aggMean=%d aggN=%d aggErr=%s}",
		c.Estimator, c.Flows, c.Samples, f(c.MedianRelErr), f(c.P99RelErr), c.AggMeanNs, c.AggSamples, f(c.AggRelErr))
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
