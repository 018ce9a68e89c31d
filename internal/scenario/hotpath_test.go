package scenario

import (
	"runtime"
	"testing"
	"time"
)

// allPairsSpec is the pipeline benchmark's capture spec (bench/workloads.go):
// the registered fattree-allpairs scenario at the given simulated duration.
func allPairsSpec(tb testing.TB, d time.Duration) Spec {
	tb.Helper()
	sc, ok := Get("fattree-allpairs")
	if !ok {
		tb.Fatal("fattree-allpairs not registered")
	}
	spec := sc.Spec
	spec.Duration = d
	if err := spec.Validate(); err != nil {
		tb.Fatal(err)
	}
	return spec
}

// BenchmarkExportAllPairs is the simulator stage of the pipeline benchmark's
// write_path workload in isolation: scenario.Export of fattree-allpairs at
// 0.2 s. DESIGN.md's per-packet budget table is read off it (-benchmem for
// allocs and bytes, -cpuprofile for the shares).
func BenchmarkExportAllPairs(b *testing.B) {
	spec := allPairsSpec(b, 200*time.Millisecond)
	var injected int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Export(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		injected += tr.Result.Injected
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(injected), "ns/pkt")
}

// BenchmarkExportK8 is the same export on a k = 8 fat-tree at 60 % load for
// 30 ms: many more events in flight than BenchmarkExportAllPairs' tens, so an
// event queue whose cost grows with its length shows here and not there.
func BenchmarkExportK8(b *testing.B) {
	spec := allPairsSpec(b, 30*time.Millisecond)
	spec.Topology.K = 8
	spec.Workload.LoadFrac = 0.6
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	var injected int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Export(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		injected += tr.Result.Injected
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(injected), "ns/pkt")
}

// TestZeroAllocMarginalPerPacket gates the simulator's per-packet garbage
// where it shows: the allocations a fat-tree run makes for each *additional*
// injected packet, fixed costs (topology, routing tables, instruments)
// cancelled by differencing a 50 ms and a 200 ms run of the benchmark's
// capture spec. What is left is per-flow state and amortized buffer growth —
// forwarding, path tracing, the event queue and packet construction
// contribute nothing per packet. Mallocs are counted process-wide (the
// collector plane ingests on its own goroutines), so CI runs this in a
// process of its own.
func TestZeroAllocMarginalPerPacket(t *testing.T) {
	measure := func(d time.Duration) (mallocs uint64, injected int) {
		spec := allPairsSpec(t, d)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr, err := Export(spec, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, tr.Result.Injected
	}
	measure(50 * time.Millisecond) // warm-up: one-time registry and runtime initialization
	shortAllocs, shortPkts := measure(50 * time.Millisecond)
	longAllocs, longPkts := measure(200 * time.Millisecond)
	if longPkts < 3*shortPkts {
		t.Fatalf("injected %d and %d packets; the two runs are too close to difference", shortPkts, longPkts)
	}
	marginal := float64(longAllocs-shortAllocs) / float64(longPkts-shortPkts)
	t.Logf("50 ms: %d allocs / %d pkts; 200 ms: %d allocs / %d pkts; marginal %.2f allocs/pkt",
		shortAllocs, shortPkts, longAllocs, longPkts, marginal)
	if marginal > 2.0 {
		t.Fatalf("each additional injected packet costs %.2f allocations, want <= 2.0 (it was 5.8 when every packet, its hop trace and its flow records were separate heap objects)", marginal)
	}
}

// TestPeakHeapIsInFlightOnly is the two-tier event queue's own proof on the
// benchmark's capture spec: injection hands the whole workload to the
// engine's backlog, and the heap never holds more than the events in flight —
// a small fraction of the packet count, where it used to hold all of it. It
// also gates the events a packet costs: one arrival event per node, keyed
// at arrival + processing delay and scheduled by the upstream port at tx
// start, plus a txNext only where a packet waited behind another — 9.49 per
// injected packet (13.40 when every link hop also paid a tx-complete).
func TestPeakHeapIsInFlightOnly(t *testing.T) {
	r, err := buildFatTree(allPairsSpec(t, 200*time.Millisecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(nil); err != nil {
		t.Fatal(err)
	}
	r.inject()
	r.run()
	res, err := r.harvest()
	if err != nil {
		t.Fatal(err)
	}
	eng := r.nw.Engine()
	backlog, peak := eng.Backlog(), eng.PeakHeap()
	perPkt := float64(eng.Processed()) / float64(res.Injected)
	t.Logf("injected %d, backlog %d, peak heap %d, events %d (%.2f per packet)", res.Injected, backlog, peak, eng.Processed(), perPkt)
	if backlog != res.Injected {
		t.Errorf("backlog took %d events for %d injected packets", backlog, res.Injected)
	}
	if peak == 0 || peak >= res.Injected/10 {
		t.Errorf("peak heap %d, want in (0, %d): the heap should hold in-flight events only", peak, res.Injected/10)
	}
	if perPkt > 10.0 {
		t.Errorf("%.2f events per injected packet, want <= 10.0: a link hop should cost one arrival event, plus a txNext only after a wait", perPkt)
	}
}
