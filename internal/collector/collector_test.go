package collector

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// genStream builds a deterministic sample stream over nFlows flows.
func genStream(seed int64, nFlows, nSamples int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]packet.FlowKey, nFlows)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	out := make([]Sample, nSamples)
	for i := range out {
		out[i] = Sample{
			Key:  keys[rng.Intn(nFlows)],
			Est:  time.Duration(rng.Int63n(int64(time.Millisecond))),
			True: time.Duration(rng.Int63n(int64(time.Millisecond))),
		}
	}
	return out
}

// sequentialAggregate is the single-threaded reference the sharded plane
// must match.
func sequentialAggregate(stream []Sample, recs []netflow.Record) []FlowAgg {
	s := newShard(Config{Shards: 1})
	var now time.Time
	for _, smp := range stream {
		s.agg(smp.Key, smp.Key.FastHash(), now).addSample(smp, &s.spares)
	}
	for _, r := range recs {
		s.agg(r.Key, r.Key.FastHash(), now).addRecord(r)
	}
	out := s.rows()
	// Canonical order, as Snapshot produces.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key.Compare(out[j-1].Key) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// rows deep-copies the shard's live flows in flow-key order, as Snapshot
// clones them.
func (s *shard) rows() []FlowAgg {
	var m Merger
	return m.mergeRuns([][]*FlowAgg{s.sortedRun(new(scratch))}, true)
}

// TestShardedEqualsSequential is the acceptance-criteria test: a 2-shard
// collector's snapshot must equal single-threaded aggregation of the same
// record stream bit-for-bit. It holds exactly (not just within tolerance)
// because a flow's samples never split across shards, so every per-flow
// accumulator sees the identical sample sequence.
func TestShardedEqualsSequential(t *testing.T) {
	stream := genStream(7, 200, 20000)
	recs := make([]netflow.Record, 0, 100)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		s := stream[rng.Intn(len(stream))]
		recs = append(recs, netflow.Record{
			Key: s.Key, First: simtime.Time(i), Last: simtime.Time(i + 1000),
			Packets: uint64(rng.Intn(100) + 1), Bytes: uint64(rng.Intn(100000)),
		})
	}
	want := sequentialAggregate(stream, recs)

	for _, shards := range []int{1, 2, 5} {
		c := New(Config{Shards: shards, Depth: 4})
		for i := 0; i < len(stream); i += 512 {
			end := min(i+512, len(stream))
			c.Ingest(stream[i:end])
		}
		c.IngestRecords(recs)
		got := c.Snapshot()
		c.Close()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d flows, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("shards=%d: flow %v diverges from sequential aggregation:\n got %+v\nwant %+v",
					shards, got[i].Key, got[i], want[i])
			}
		}
		if c.SamplesIngested() != uint64(len(stream)) || c.RecordsIngested() != uint64(len(recs)) {
			t.Fatalf("shards=%d: counters %d/%d, want %d/%d",
				shards, c.SamplesIngested(), c.RecordsIngested(), len(stream), len(recs))
		}
	}
}

// TestSnapshotAfterClose pins that the final state stays readable.
func TestSnapshotAfterClose(t *testing.T) {
	c := New(Config{Shards: 3})
	stream := genStream(9, 20, 500)
	c.Ingest(stream)
	live := c.Snapshot()
	c.Close()
	closed := c.Snapshot()
	if !reflect.DeepEqual(live, closed) {
		t.Fatal("snapshot after Close differs from live snapshot")
	}
	if c.Flows() != len(closed) {
		t.Fatalf("Flows() = %d, want %d", c.Flows(), len(closed))
	}
}

// TestConcurrentProducers drives the collector from many goroutines at once
// (run under -race in CI). Each producer owns a disjoint flow population, so
// per-flow results must still match sequential aggregation exactly.
func TestConcurrentProducers(t *testing.T) {
	const producers = 8
	streams := make([][]Sample, producers)
	var all []Sample
	for p := range streams {
		// Distinct seeds -> disjoint random keys (collision chance over
		// 96-bit keys is negligible, and determinism makes any collision
		// reproducible rather than flaky).
		streams[p] = genStream(int64(100+p), 50, 5000)
		all = append(all, streams[p]...)
	}
	want := sequentialAggregate(all, nil)

	c := New(Config{Shards: 4, Depth: 2})
	var wg sync.WaitGroup
	for p := range streams {
		wg.Add(1)
		go func(stream []Sample) {
			defer wg.Done()
			for i := 0; i < len(stream); i += 256 {
				end := min(i+256, len(stream))
				c.Ingest(stream[i:end])
			}
		}(streams[p])
	}
	wg.Wait()
	got := c.Snapshot()
	c.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent ingest diverges from sequential aggregation (%d vs %d flows)", len(got), len(want))
	}
}

// TestIngestFrame checks the wire path lands in the same aggregates as the
// native path.
func TestIngestFrame(t *testing.T) {
	stream := genStream(11, 30, 2000)
	recs := []netflow.Record{{Key: stream[0].Key, First: 5, Last: 99, Packets: 7, Bytes: 4242}}
	want := sequentialAggregate(stream, recs)

	var buf []byte
	buf = AppendSamples(buf, stream[:1000])
	buf = AppendSamples(buf, stream[1000:])
	buf = AppendRecords(buf, recs)

	c := New(Config{Shards: 2})
	for len(buf) > 0 {
		n, err := c.IngestFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[n:]
	}
	got := c.Snapshot()
	c.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire-path aggregation diverges from native-path aggregation")
	}
}

// TestMergeSnapshots: merging two planes' snapshots equals one plane over
// the union stream, up to Welford merge reassociation on shared flows.
func TestMergeSnapshots(t *testing.T) {
	a := genStream(21, 40, 3000)
	b := genStream(22, 40, 3000)

	ca := New(Config{Shards: 2})
	ca.Ingest(a)
	snapA := ca.Snapshot()
	ca.Close()
	cb := New(Config{Shards: 3})
	cb.Ingest(b)
	snapB := cb.Snapshot()
	cb.Close()

	merged := Merge(snapA, snapB)
	want := sequentialAggregate(append(append([]Sample{}, a...), b...), nil)
	if len(merged) != len(want) {
		t.Fatalf("merged %d flows, want %d", len(merged), len(want))
	}
	for i := range merged {
		g, w := merged[i], want[i]
		if g.Key != w.Key || g.Est.N() != w.Est.N() || g.Sketch.Count() != w.Sketch.Count() {
			t.Fatalf("flow %d: key/count mismatch: %+v vs %+v", i, g, w)
		}
		if d := math.Abs(g.Est.Mean() - w.Est.Mean()); d > 1e-9*math.Abs(w.Est.Mean()) {
			t.Fatalf("flow %v: merged mean %v vs sequential %v", g.Key, g.Est.Mean(), w.Est.Mean())
		}
	}
	// Disjoint flow sets merge exactly.
	if got := Merge(snapA); !reflect.DeepEqual(got, snapA) {
		t.Fatal("identity merge changed aggregates")
	}
}

// TestSnapshotCloseConcurrent: Snapshot racing Close must neither panic
// (send on closed channel) nor race (run under -race in CI) — it returns
// either a live cut or the final state.
func TestSnapshotCloseConcurrent(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		c := New(Config{Shards: 2})
		c.Ingest(genStream(int64(iter), 10, 200))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := c.Snapshot(); len(got) == 0 {
					t.Error("snapshot lost ingested flows")
				}
			}()
		}
		c.Close()
		wg.Wait()
	}
}

// TestFlowAggSize keeps the flow row from regrowing unnoticed. Every copy of
// the table — shard run, Collector.Snapshot, snapshot decode, Merge, the
// eviction fold — moves and zeroes whole rows, so the row's size is a factor
// in every query and in ingest under churn. At 704 bytes (544 of them a
// fixed 64-bucket log2 histogram no query read, whose counts the sketch
// already held) one merged /flows over 2 266 flows allocated 12.1 MB and
// spent 16 % of its CPU clearing rows; at 160 it allocates under half that.
func TestFlowAggSize(t *testing.T) {
	if size := unsafe.Sizeof(FlowAgg{}); size > 160 {
		t.Fatalf("FlowAgg is %d bytes, want <= 160", size)
	}
}
