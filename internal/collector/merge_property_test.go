package collector

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// TestMergeFlowPartitionedExact is the fleet tier's correctness theorem,
// stated as a property: partition one sample/record stream across M
// collectors BY FLOW (every flow's traffic lands wholly in one collector —
// exactly what fleet.Partition guarantees) and Merge the M snapshots; the
// result must be bit-identical to one collector ingesting the whole stream.
// Flow-disjoint partitioning means Merge never folds two non-empty same-key
// Welford accumulators, so no float reassociation ever happens — equality is
// reflect.DeepEqual, not a tolerance.
func TestMergeFlowPartitionedExact(t *testing.T) {
	f := func(seed int64, instanceCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(instanceCount%5)
		nFlows := 1 + rng.Intn(40)
		keys := make([]packet.FlowKey, nFlows)
		for i := range keys {
			keys[i] = randKey(rng)
		}
		whole := New(Config{Shards: 2})
		parts := make([]*Collector, m)
		for i := range parts {
			parts[i] = New(Config{Shards: 2})
		}
		for batch := 0; batch < 20; batch++ {
			smps := make([]Sample, 1+rng.Intn(50))
			for i := range smps {
				smps[i] = Sample{
					Key:  keys[rng.Intn(nFlows)],
					Est:  time.Duration(rng.Int63n(int64(time.Second))),
					True: time.Duration(rng.Int63n(int64(time.Second))),
				}
			}
			recs := make([]netflow.Record, rng.Intn(10))
			for i := range recs {
				recs[i] = netflow.Record{
					Key:     keys[rng.Intn(nFlows)],
					Packets: uint64(1 + rng.Intn(100)),
					Bytes:   uint64(64 + rng.Intn(1<<16)),
					First:   simtime.Time(rng.Int63n(int64(time.Second))),
					Last:    simtime.Time(rng.Int63n(int64(time.Second))),
				}
			}
			whole.Ingest(smps)
			whole.IngestRecords(recs)
			// Flow-disjoint split: instance = hash(key) mod m.
			sp := make([][]Sample, m)
			for _, s := range smps {
				i := int(s.Key.FastHash() % uint64(m))
				sp[i] = append(sp[i], s)
			}
			rp := make([][]netflow.Record, m)
			for _, r := range recs {
				i := int(r.Key.FastHash() % uint64(m))
				rp[i] = append(rp[i], r)
			}
			for i := range parts {
				parts[i].Ingest(sp[i])
				parts[i].IngestRecords(rp[i])
			}
		}
		whole.Close()
		want := whole.Snapshot()
		snaps := make([][]FlowAgg, m)
		for i, p := range parts {
			p.Close()
			snaps[i] = p.Snapshot()
		}
		if !reflect.DeepEqual(Merge(snaps...), want) {
			return false
		}
		// Order invariance: flow-disjoint inputs never co-merge a key, so any
		// argument order gives the same (sorted) result bit-for-bit.
		rng.Shuffle(m, func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
		if !reflect.DeepEqual(Merge(snaps...), want) {
			return false
		}
		// Associativity: pairwise left fold equals one flat Merge.
		acc := Merge(snaps[0])
		for _, s := range snaps[1:] {
			acc = Merge(acc, s)
		}
		return reflect.DeepEqual(acc, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// referenceMerge is the map-based Merge this package shipped before the k-way
// one, kept as its oracle: a map insert and one cloneAgg per flow, folds in
// argument order, then a sort.
func referenceMerge(snaps ...[]FlowAgg) []FlowAgg {
	m := make(map[packet.FlowKey]*FlowAgg)
	for _, snap := range snaps {
		for i := range snap {
			a := &snap[i]
			if dst, ok := m[a.Key]; ok {
				dst.merge(a)
			} else {
				cp := cloneAgg(a)
				m[a.Key] = &cp
			}
		}
	}
	out := make([]FlowAgg, 0, len(m))
	for _, a := range m {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Compare(out[j].Key) < 0 })
	return out
}

// cloneTable deep-copies a table, for before/after comparisons.
func cloneTable(in []FlowAgg) []FlowAgg {
	if in == nil {
		return nil
	}
	out := make([]FlowAgg, len(in))
	for i := range in {
		out[i] = cloneAgg(&in[i])
	}
	return out
}

// randTable runs a collector over a random stream drawn from keys and
// returns its sorted snapshot. Latencies span six decades so that flows
// sharing a key across tables have different sketch windows.
func randTable(rng *rand.Rand, keys []packet.FlowKey) []FlowAgg {
	c := New(Config{Shards: 1 + rng.Intn(3)})
	scale := int64(time.Microsecond) << uint(rng.Intn(20))
	smps := make([]Sample, rng.Intn(400))
	for i := range smps {
		smps[i] = Sample{Key: keys[rng.Intn(len(keys))], Est: time.Duration(rng.Int63n(scale)), True: time.Duration(rng.Int63n(scale))}
	}
	c.Ingest(smps)
	recs := make([]netflow.Record, rng.Intn(8))
	for i := range recs {
		recs[i] = netflow.Record{Key: keys[rng.Intn(len(keys))], Packets: uint64(1 + rng.Intn(9)), Bytes: 64, First: simtime.Time(rng.Int63n(1e9)), Last: simtime.Time(rng.Int63n(1e9))}
	}
	c.IngestRecords(recs)
	c.Close()
	return c.Snapshot()
}

// TestMergeMatchesMapReference holds the k-way Merge to the map-based one it
// replaced, reflect.DeepEqual — so same-key Welford folds happen in argument
// order, bit for bit — over every input shape a caller can hand it.
func TestMergeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]packet.FlowKey, 60)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	check := func(name string, snaps ...[]FlowAgg) {
		t.Helper()
		before := make([][]FlowAgg, len(snaps))
		for i := range snaps {
			before[i] = cloneTable(snaps[i])
		}
		got, want := Merge(snaps...), referenceMerge(snaps...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Merge diverges from the map-based reference (%d vs %d flows)", name, len(got), len(want))
		}
		for i := range snaps {
			if !reflect.DeepEqual(snaps[i], before[i]) {
				t.Fatalf("%s: Merge modified input %d", name, i)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		// (a) Sorted, flow-disjoint partitions: the fleet's case.
		k := 1 + rng.Intn(5)
		parts := make([][]FlowAgg, k)
		for i, a := range randTable(rng, keys) {
			parts[i%k] = append(parts[i%k], a)
		}
		check("disjoint", parts...)

		// (b) The same keys in three or more sorted inputs, in two argument
		// orders: each must equal the reference fed the same order.
		over := make([][]FlowAgg, 3+rng.Intn(3))
		for i := range over {
			over[i] = randTable(rng, keys[:10+rng.Intn(50)])
		}
		check("overlapping", over...)
		rng.Shuffle(len(over), func(i, j int) { over[i], over[j] = over[j], over[i] })
		check("overlapping, reordered", over...)

		// (c) An unsorted input, which also repeats keys within itself.
		jumbled := append(cloneTable(over[0]), cloneTable(over[1])...)
		rng.Shuffle(len(jumbled), func(i, j int) { jumbled[i], jumbled[j] = jumbled[j], jumbled[i] })
		check("unsorted", over[2], jumbled, over[0])

		// (d) Nil and empty inputs among real ones.
		check("with empties", nil, over[0], []FlowAgg{}, over[1], nil)
	}
	// (d) Nothing to merge: the parent returned an empty non-nil table (the
	// reference still does; DeepEqual tells nil from empty).
	check("no inputs")
	check("nil input", nil)
	check("empty inputs", nil, []FlowAgg{}, nil)
	if got := Merge(); got == nil || len(got) != 0 {
		t.Fatalf("Merge() = %#v, want an empty non-nil table", got)
	}
}

// TestMergerMoveMatchesMerge holds the moving merge the fleet front-end runs
// to the cloning one: one Merger, reused across tables of changing size and
// shape — disjoint, overlapping, unsorted, empty — moves copies of the inputs
// into a result reflect.DeepEqual to Merge's, so its leftovers from one merge
// never show in the next.
func TestMergerMoveMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	keys := make([]packet.FlowKey, 60)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	var m Merger
	for trial := 0; trial < 60; trial++ {
		tables := make([][]FlowAgg, rng.Intn(5))
		for i := range tables {
			switch tables[i] = randTable(rng, keys[:1+rng.Intn(len(keys))]); rng.Intn(4) {
			case 0:
				rng.Shuffle(len(tables[i]), func(a, b int) { tables[i][a], tables[i][b] = tables[i][b], tables[i][a] })
			case 1:
				tables[i] = nil
			}
		}
		want := Merge(tables...)
		moved := make([][]FlowAgg, len(tables))
		for i := range tables {
			moved[i] = cloneTable(tables[i])
		}
		if got := m.Move(moved...); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Move of %d tables gives %d flows, Merge %d, or their values differ", trial, len(tables), len(got), len(want))
		}
	}
}

// TestMergeResultAliasesNothing pins Merge's deep-copy contract now that the
// result's sketch windows are carved from one slab: folding more into any
// result aggregate — in place, and past its window on both sides — changes
// that aggregate alone, never an input and never a neighbouring result.
func TestMergeResultAliasesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]packet.FlowKey, 24)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	a, b := randTable(rng, keys), randTable(rng, keys[8:])
	inputs := [][]FlowAgg{cloneTable(a), cloneTable(b)}

	var wide FlowAgg // a sketch window wider than any flow's, on both sides
	for _, d := range []time.Duration{1, time.Millisecond, time.Hour} {
		wide.addSample(Sample{Est: d, True: d})
	}
	for _, how := range []string{"in place", "widened"} {
		res := Merge(a, b)
		want := cloneTable(res)
		for i := range res {
			other := &wide
			if how == "in place" {
				cp := cloneAgg(&res[i]) // same window: every add lands in existing counters
				other = &cp
			}
			res[i].merge(other)
			want[i].merge(other)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: folding into result %d of %d disturbed another result", how, i, len(res))
			}
			if !reflect.DeepEqual([][]FlowAgg{a, b}, inputs) {
				t.Fatalf("%s: folding into result %d wrote through to an input", how, i)
			}
		}
	}
}

// TestMergeAllocatesPerCallNotPerFlow gates the merge's garbage: two sorted,
// disjoint 1 000-flow tables merge in a constant number of allocations (the
// pointer runs, the merge order, the result and its one sketch slab).
func TestMergeAllocatesPerCallNotPerFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]packet.FlowKey, 2000)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	smps := make([]Sample, 20000)
	for i := range smps {
		smps[i] = Sample{Key: keys[i%len(keys)], Est: time.Duration(1 + rng.Int63n(int64(time.Millisecond)))}
	}
	c := New(Config{Shards: 2})
	c.Ingest(smps)
	c.Close()
	var parts [2][]FlowAgg
	for i, a := range c.Snapshot() {
		parts[i%2] = append(parts[i%2], a)
	}
	if len(parts[0]) != 1000 || len(parts[1]) != 1000 {
		t.Fatalf("partitions hold %d and %d flows, want 1000 each", len(parts[0]), len(parts[1]))
	}
	var merged []FlowAgg
	if n := testing.AllocsPerRun(10, func() { merged = Merge(parts[0], parts[1]) }); n > 8 {
		t.Fatalf("Merge of 2 x 1000 disjoint flows allocates %v times, want a constant <= 8", n)
	}
	if len(merged) != 2000 {
		t.Fatalf("merged %d flows, want 2000", len(merged))
	}
}

// TestMergeRollupsMatchesMapReference checks the class tier, which goes
// through the same k-way helper from per-shard rollups whose classes arrive
// in map order.
func TestMergeRollupsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rolls := make([]Rollup, 4)
	classes := make([][]FlowAgg, len(rolls))
	for i := range rolls {
		c := New(Config{Shards: 2, MaxFlows: 4})
		smps := make([]Sample, 600)
		for j := range smps {
			k := randKey(rng)
			k.Src, k.Dst = packet.Addr(0x0a000000+rng.Intn(3)), packet.Addr(0x0a800000+rng.Intn(2)) // six classes, shared across collectors
			smps[j] = Sample{Key: k, Est: time.Duration(rng.Int63n(int64(time.Second)))}
		}
		c.Ingest(smps)
		c.Close()
		rolls[i] = c.RollupSnapshot()
		classes[i] = rolls[i].Classes
		if len(classes[i]) < 2 {
			t.Fatalf("collector %d rolled up %d classes, want several", i, len(classes[i]))
		}
	}
	got := MergeRollups(rolls...)
	if want := referenceMerge(classes...); !reflect.DeepEqual(got.Classes, want) {
		t.Fatalf("MergeRollups classes diverge from the map-based reference (%d vs %d)", len(got.Classes), len(want))
	}
	var root FlowAgg
	for i := range rolls {
		root.merge(&rolls[i].Root)
	}
	if !reflect.DeepEqual(got.Root, root) {
		t.Fatal("MergeRollups root diverges from folding the roots in order")
	}
}

// BenchmarkMergeDisjoint merges two sorted, flow-disjoint 1 133-flow tables —
// the read_path fleet's merge stage.
func BenchmarkMergeDisjoint(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]packet.FlowKey, 2266)
	for i := range keys {
		keys[i] = randKey(rng)
	}
	smps := make([]Sample, 60000)
	for i := range smps {
		// 80-120 us: a sketch window of about twenty counters, like the capture's.
		smps[i] = Sample{Key: keys[i%len(keys)], Est: 80*time.Microsecond + time.Duration(rng.Int63n(int64(40*time.Microsecond)))}
	}
	c := New(Config{Shards: 2})
	c.Ingest(smps)
	c.Close()
	var parts [2][]FlowAgg
	for i, a := range c.Snapshot() {
		parts[i%2] = append(parts[i%2], a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = Merge(parts[0], parts[1])
	}
}

var mergeSink []FlowAgg
