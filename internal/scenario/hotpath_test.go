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
// allocs and bytes, -cpuprofile for the shares). It also reports how often
// the simulator waited on the goroutines beside it, per export: blocked/op
// and blocked-ms/op over both pipes, and the passive consumer's share alone
// as tap-blocked/op and tap-blocked-ms/op. The workload producer's share
// includes the wait for its first chunk, the generator's warm-up.
func BenchmarkExportAllPairs(b *testing.B) {
	spec := allPairsSpec(b, 200*time.Millisecond)
	var injected int
	var taps, all pipeStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Export(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		injected += tr.Result.Injected
		taps.add(tr.taps)
		all.add(tr.taps)
		all.add(tr.work)
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(injected), "ns/pkt")
	n := float64(b.N)
	b.ReportMetric(float64(all.handoffs)/n, "handoffs/op")
	b.ReportMetric(float64(all.blocked)/n, "blocked/op")
	b.ReportMetric(all.wait.Seconds()*1e3/n, "blocked-ms/op")
	b.ReportMetric(float64(taps.blocked)/n, "tap-blocked/op")
	b.ReportMetric(taps.wait.Seconds()*1e3/n, "tap-blocked-ms/op")
}

// BenchmarkHarvestAllPairs is BenchmarkExportAllPairs' last stage alone:
// build, instrument, inject and run with the timer stopped, then harvest —
// the caller's receiver fold beside the plane's fold, and their join — and
// the capture's trace. Its ns/pkt is the harvest row of DESIGN.md's
// per-packet budget.
func BenchmarkHarvestAllPairs(b *testing.B) {
	spec := allPairsSpec(b, 200*time.Millisecond)
	var injected int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cap := newCapture()
		r, err := buildFatTree(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.instrument(cap); err != nil {
			b.Fatal(err)
		}
		r.inject()
		r.run()
		b.StartTimer()
		res, err := r.harvest()
		if err != nil {
			b.Fatal(err)
		}
		cap.finish(spec.Name, 1, res)
		injected += res.Injected
	}
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

// TestPeakHeapIsInFlightOnly is the event queue's own proof on the
// benchmark's capture spec: the workload is one pulled source, so the engine
// holds one pending injection beside the events in flight — a small fraction
// of the packet count, where it used to hold all of it — and the run's
// memory is what is in flight plus what the export keeps. It also gates the
// events a packet costs: its injection, one arrival event per further node,
// keyed at arrival + processing delay and scheduled by the upstream port at
// tx start, plus a txNext only where a packet waited behind another — 9.49
// per injected packet (13.40 when every link hop also paid a tx-complete) —
// and the bytes an export allocates per injected packet: ≈ 1 380 while
// setup handed the engine the whole workload, whose slice regrowth alone
// was ≈ 320. And it gates the times the queue files an event: 3.9 per event
// when the radix heap held every event and refiled each 2.9 times on
// average; with the timing wheel in front, an event within the wheel's span
// is filed once.
func TestPeakHeapIsInFlightOnly(t *testing.T) {
	spec := allPairsSpec(t, 200*time.Millisecond)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cap := newCapture()
	r, err := buildFatTree(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(cap); err != nil {
		t.Fatal(err)
	}
	r.inject()
	eng := r.nw.Engine()
	if n := eng.Pending(); n != 1 {
		t.Fatalf("the workload left %d events pending before the run, want its one injection", n)
	}
	r.run()
	res, err := r.harvest()
	if err != nil {
		t.Fatal(err)
	}
	cap.finish(spec.Name, 1, res)
	runtime.ReadMemStats(&after)
	peak := eng.PeakHeap()
	perPkt := float64(eng.Processed()) / float64(res.Injected)
	filedPerEvent := float64(eng.Filed()) / float64(eng.Processed())
	bytesPerPkt := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Injected)
	t.Logf("injected %d, peak heap %d, events %d (%.2f per packet, filed %.3f times each), %.0f bytes allocated per packet",
		res.Injected, peak, eng.Processed(), perPkt, filedPerEvent, bytesPerPkt)
	if peak == 0 || peak >= res.Injected/10 {
		t.Errorf("peak heap %d, want in (0, %d): the heap should hold the pending injection and in-flight events only", peak, res.Injected/10)
	}
	if perPkt > 10.0 {
		t.Errorf("%.2f events per injected packet, want <= 10.0: a link hop should cost one arrival event, plus a txNext only after a wait", perPkt)
	}
	if filedPerEvent > 1.2 {
		t.Errorf("the queue filed each event %.2f times, want <= 1.2: an event inside the wheel's span should be filed once", filedPerEvent)
	}
	if bytesPerPkt > 1200 {
		t.Errorf("%.0f bytes allocated per injected packet, want <= 1200: the engine should not hold the workload", bytesPerPkt)
	}
}
