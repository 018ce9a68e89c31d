package collector

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
)

// oracleTable is the bounded flow table written the obvious way: a slice in
// recency order searched linearly, a freshly allocated aggregate for every
// flow that enters, nothing reused. It states what MaxFlows, Window and
// MaxClasses mean; the shard's intrusive ring, free list and recycled
// sketch storage must be indistinguishable from it.
type oracleTable struct {
	live       []*oracleFlow // most recently seen first
	classes    map[packet.FlowKey]*FlowAgg
	root       FlowAgg
	maxFlows   int
	maxClasses int
	window     time.Duration
	stats      TableStats
}

type oracleFlow struct {
	agg  FlowAgg
	last time.Time
}

func (o *oracleTable) agg(key packet.FlowKey, now time.Time) *FlowAgg {
	for i, f := range o.live {
		if f.agg.Key == key {
			copy(o.live[1:i+1], o.live[:i])
			o.live[0] = f
			f.last = now
			return &f.agg
		}
	}
	for len(o.live) >= o.maxFlows {
		o.foldOldest(&o.stats.Evicted)
	}
	f := &oracleFlow{agg: FlowAgg{Key: key}, last: now}
	o.live = append([]*oracleFlow{f}, o.live...)
	return &f.agg
}

func (o *oracleTable) foldOldest(counter *uint64) {
	f := o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
	*counter++
	class := f.agg.Key.Class()
	dst, ok := o.classes[class]
	switch {
	case ok:
	case len(o.classes) < o.maxClasses:
		dst = &FlowAgg{Key: class}
		o.classes[class] = dst
	default:
		dst = &o.root
	}
	key := dst.Key
	dst.merge(&f.agg)
	dst.Key = key
}

func (o *oracleTable) expire(now time.Time) {
	for n := len(o.live); n > 0 && now.Sub(o.live[n-1].last) > o.window; n = len(o.live) {
		o.foldOldest(&o.stats.Expired)
	}
}

func (o *oracleTable) snapshot() []FlowAgg {
	out := make([]FlowAgg, 0, len(o.live))
	for _, f := range o.live {
		out = append(out, cloneAgg(&f.agg))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Compare(out[j].Key) < 0 })
	return out
}

func (o *oracleTable) rollup() Rollup {
	r := Rollup{Root: cloneAgg(&o.root), Classes: make([]FlowAgg, 0, len(o.classes))}
	for _, a := range o.classes {
		r.Classes = append(r.Classes, cloneAgg(a))
	}
	sort.Slice(r.Classes, func(i, j int) bool { return r.Classes[i].Key.Compare(r.Classes[j].Key) < 0 })
	r.Stats = o.stats
	r.Stats.Flows, r.Stats.Classes = len(o.live), len(o.classes)
	return r
}

// deepCopyAggs copies a snapshot without going through the code under test.
func deepCopyAggs(in []FlowAgg) []FlowAgg {
	out := make([]FlowAgg, len(in))
	for i := range in {
		out[i] = in[i]
		out[i].Sketch.SetState(in[i].Sketch.State())
	}
	return out
}

// TestRecyclingIsInvisible drives one capped, windowed shard — through the
// public API, so the shard goroutine and the pooled batch buffers are in
// play, and under -race in CI — with a stream of well over 10x cap distinct
// flows whose keys keep re-appearing, and checks after every few batches
// that it cannot be told from the unrecycled oracle fed the same stream:
// every live row, every class rollup and the root reflect.DeepEqual, every
// sample in exactly one tier. Snapshots taken along the way must still read
// the same at the end, after the entries they were copied from have been
// evicted and their sketch storage overwritten by other flows.
func TestRecyclingIsInvisible(t *testing.T) {
	const (
		maxFlows   = 32
		maxClasses = 12
		window     = 50 * time.Millisecond
		nKeys      = 600
		nSamples   = 40000
	)
	rng := rand.New(rand.NewSource(77))
	keys := make([]packet.FlowKey, nKeys)
	for i := range keys {
		keys[i] = randKey(rng)
		keys[i].Src &= 0xff // few distinct classes: the class cap must bite
		keys[i].Dst &= 0x03
	}
	clk := newFakeClock()
	c := New(Config{Shards: 1, MaxFlows: maxFlows, MaxClasses: maxClasses, Window: window, Clock: clk.Now})
	defer c.Close()
	oracle := &oracleTable{
		classes: make(map[packet.FlowKey]*FlowAgg), maxFlows: maxFlows, maxClasses: maxClasses, window: window,
	}

	type kept struct{ snap, frozen []FlowAgg }
	var keptSnaps []kept
	batch := make([]Sample, 0, 256)
	seen := make(map[packet.FlowKey]bool)
	sent := 0
	for round := 0; sent < nSamples; round++ {
		// A hot set that drifts across the key space keeps some flows live
		// for long stretches while the rest churn through the table, and
		// lets old keys come back after they were folded away.
		hot := (sent / 50) % nKeys
		batch = batch[:0]
		for i, n := 0, 1+rng.Intn(cap(batch)); i < n; i++ {
			k := keys[(hot+int(math.Abs(rng.NormFloat64())*40))%nKeys]
			seen[k] = true
			// Delays from 100 ns to 100 ms: windows of very different
			// widths share recycled storage, and widen on both sides.
			est := time.Duration(100 * math.Pow(10, 6*rng.Float64()))
			batch = append(batch, Sample{Key: k, Est: est, True: est + time.Duration(rng.Intn(1000))})
		}
		now := clk.Now()
		for _, s := range batch {
			oracle.agg(s.Key, now).addSample(s)
		}
		oracle.expire(now)
		c.Ingest(batch)
		c.Flows() // the shard has read the clock for this batch: safe to move it
		sent += len(batch)
		// Mostly small steps, sometimes one that idles out part of the table.
		clk.Advance(time.Duration(rng.Intn(4)) * time.Millisecond)
		if rng.Intn(25) == 0 {
			clk.Advance(window)
		}

		if round%5 != 0 {
			continue
		}
		snap := c.Snapshot()
		if want := oracle.snapshot(); !reflect.DeepEqual(snap, want) {
			t.Fatalf("after %d samples: live rows differ from the unrecycled oracle (%d vs %d rows)", sent, len(snap), len(want))
		}
		got, want := c.RollupSnapshot(), oracle.rollup()
		got.Stats.Recycled = 0 // the oracle recycles nothing, by construction
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d samples: rollup tiers differ from the unrecycled oracle\n got  stats %+v\n want stats %+v", sent, got.Stats, want.Stats)
		}
		conserved(t, c, uint64(sent))
		if len(keptSnaps) < 40 {
			keptSnaps = append(keptSnaps, kept{snap: snap, frozen: deepCopyAggs(snap)})
		}
	}

	st := c.Stats()
	if len(seen) < 10*maxFlows {
		t.Fatalf("stream touched %d distinct flows, want at least 10x the cap of %d", len(seen), maxFlows)
	}
	if st.Evicted == 0 || st.Expired == 0 || st.Recycled == 0 {
		t.Fatalf("stream did not exercise every path: %+v", st)
	}
	if int(st.Evicted+st.Expired) <= len(seen) {
		t.Fatalf("%d folds over %d distinct flows: no key ever re-appeared after being folded", st.Evicted+st.Expired, len(seen))
	}
	// Every entry beyond the first maxFlows allocations was a reuse.
	if inserted := uint64(st.Flows) + st.Evicted + st.Expired; st.Recycled < inserted-maxFlows {
		t.Fatalf("%d insertions recycled only %d entries with a cap of %d", inserted, st.Recycled, maxFlows)
	}
	for i, k := range keptSnaps {
		if !reflect.DeepEqual(k.snap, k.frozen) {
			t.Fatalf("snapshot %d changed after its flows were evicted: it aliases recycled storage", i)
		}
	}
}

// churnBatches returns n batches of size samples over size/2 flows each,
// no flow ever repeating across batches: every flow is seen twice, at two
// delays five to seven octaves apart, so recycled sketches hold real windows
// (all of one capacity class: storage settles after one tenant).
func churnBatches(n, size int) [][]Sample {
	out := make([][]Sample, n)
	id := 0
	for i := range out {
		out[i] = make([]Sample, size)
		for j := 0; j < size/2; j++ {
			id++
			key := packet.FlowKey{
				Src:     packet.Addr(0x0a000000 | id&0xff), // 256 classes
				Dst:     0x0ac80001,
				SrcPort: uint16(id), DstPort: uint16(id >> 16),
				Proto: packet.ProtoUDP,
			}
			lo, hi := time.Duration(1000<<(id%2)), time.Duration(64000<<(id/2%2))
			if id%2 == 0 {
				lo, hi = hi, lo // widen on the low side as often as the high
			}
			out[i][j] = Sample{Key: key, Est: lo}
			out[i][size/2+j] = Sample{Key: key, Est: hi}
		}
	}
	return out
}

// TestZeroAllocChurnAtCap is the eviction path's garbage gate: a shard at
// its cap taking a batch made entirely of flows it has never seen — every
// sample evicts, folds, recycles and inserts — allocates nothing once the
// free list, the class tier and the sketch storage are warm.
func TestZeroAllocChurnAtCap(t *testing.T) {
	const runs, size = 50, 512
	s := newShard(Config{Shards: 1, MaxFlows: 1024, MaxClasses: 256})
	batches := churnBatches(runs+12, size)
	now := time.Unix(0, 0)
	ingest := func(b []Sample) {
		for _, smp := range b {
			s.agg(smp.Key, smp.Key.FastHash(), now).addSample(smp)
		}
	}
	next := 0
	for ; next < 10; next++ { // fill to the cap, then churn every entry once
		ingest(batches[next])
	}
	allocs := testing.AllocsPerRun(runs, func() {
		ingest(batches[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("all-new-flows batch at the cap allocated %.1f times, want 0", allocs)
	}
	if s.evicted < runs*size/2 || s.recycled < runs*size/2 {
		t.Fatalf("gate did not churn: evicted %d, recycled %d", s.evicted, s.recycled)
	}
}

// TestZeroAllocIngestSteadyState is the partitioning path's garbage gate:
// Ingest of a 512-sample batch over known flows — partition into the
// shards' pooled buffers, send, aggregate, hand the buffers back —
// allocates nothing once the pools hold a queue's worth of buffers.
func TestZeroAllocIngestSteadyState(t *testing.T) {
	stream := genStream(21, 2048, 1<<15)
	const size = 512
	c := New(Config{Shards: 4})
	defer c.Close()
	off := 0
	ingest := func() {
		c.Ingest(stream[off : off+size])
		off = (off + size) % (len(stream) - size)
	}
	// Warm up: every flow inserted and every sketch at its final width (the
	// stream wraps many times), every shard's pool filled by a run long
	// enough to back the queues up.
	for i := 0; i < 40*len(stream)/size; i++ {
		ingest()
	}
	c.Flows() // drain: queues empty, every buffer back in its pool
	allocs := testing.AllocsPerRun(200, ingest)
	if allocs != 0 {
		t.Fatalf("steady-state Ingest allocated %.1f times per 512-sample batch, want 0", allocs)
	}
}

// TestQueueDepths pins the gauge's shape and that it reads without a shard
// round trip: it answers even while every shard is wedged behind a full
// queue, which is exactly when an operator needs it.
func TestQueueDepths(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Shards: 2, Depth: 3, Clock: clk.Now})
	if d := c.QueueDepths(); len(d) != 2 || d[0] != 0 || d[1] != 0 {
		t.Fatalf("idle depths %v, want [0 0]", d)
	}
	<-clk.mu // wedge the shards: their next clock read blocks
	stream := genStream(8, 64, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ { // more batches than the queues hold
			c.Ingest(stream)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := c.QueueDepths()
		if d[0] == 3 && d[1] == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("depths %v never reached the configured depth of 3 with the shards wedged", d)
		}
		time.Sleep(time.Millisecond)
	}
	clk.mu <- struct{}{} // release
	<-done
	c.Close()
	if d := c.QueueDepths(); d[0] != 0 || d[1] != 0 {
		t.Fatalf("depths %v after Close, want [0 0]", d)
	}
}
