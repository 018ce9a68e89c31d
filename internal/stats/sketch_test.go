package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// sketchDistributions are the input families the accuracy property runs
// over: heavy-tailed (the paper's Pareto flow sizes), uniform, and a
// bimodal mix (two latency modes an order of magnitude apart — the shape
// eviction rollups see when slow and fast flows fold together).
var sketchDistributions = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"pareto", func(rng *rand.Rand) float64 {
		// alpha=1.2, xm=10µs: heavy tail up into the seconds.
		return 10e3 * math.Pow(1-rng.Float64(), -1/1.2)
	}},
	{"uniform", func(rng *rand.Rand) float64 {
		return rng.Float64() * 50e6 // 0..50ms, exercises the zero bucket too
	}},
	{"bimodal", func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return 100e3 + rng.Float64()*50e3 // ~100µs mode
		}
		return 5e6 + rng.Float64()*2e6 // ~5ms mode
	}},
}

// TestSketchQuantileErrorBound is the accuracy acceptance pin: for every
// distribution family and for sketches assembled from arbitrary
// partitionings merged in arbitrary orders, every quantile in a dense grid
// must be within SketchRelErrBound of the exact nearest-rank quantile of
// the same samples (stats.CDF), and the merged sketch must be bit-identical
// to the sequential one.
func TestSketchQuantileErrorBound(t *testing.T) {
	for _, dist := range sketchDistributions {
		t.Run(dist.name, func(t *testing.T) {
			f := func(seed int64, partCount uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 100 + rng.Intn(5000)
				parts := 1 + int(partCount%7)
				var seq Sketch
				shards := make([]Sketch, parts)
				samples := make([]float64, 0, n)
				for i := 0; i < n; i++ {
					x := math.Floor(dist.gen(rng)) // latencies are integer ns
					samples = append(samples, x)
					seq.Add(x)
					shards[rng.Intn(parts)].Add(x)
				}
				// Merge the shards in a random order, pairwise.
				rng.Shuffle(parts, func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
				var merged Sketch
				for i := range shards {
					merged.Merge(&shards[i])
				}
				if !reflect.DeepEqual(merged, seq) {
					t.Logf("merged sketch != sequential sketch (parts=%d)", parts)
					return false
				}
				exact := NewCDF(samples)
				for q := 0.0; q <= 1.0; q += 0.01 {
					want := exact.Quantile(q)
					got := seq.Quantile(q)
					if want < 1 {
						if got != 0 {
							t.Logf("q=%.2f: want %g (<1ns), got %g", q, want, got)
							return false
						}
						continue
					}
					if err := math.Abs(got-want) / want; err > SketchRelErrBound {
						t.Logf("q=%.2f: want %g got %g rel err %g > %g", q, want, got, err, SketchRelErrBound)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSketchMergeExactlyAssociative pins the property the fleet rollup
// merge relies on: sketch merge is bit-exact under ANY association and
// argument order, even when every operand is non-empty — stronger than
// Welford's flow-disjoint-only guarantee.
func TestSketchMergeExactlyAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]Sketch, 2+rng.Intn(5))
		for i := range parts {
			for j, n := 0, rng.Intn(300); j < n; j++ {
				parts[i].Add(math.Floor(rng.Float64() * 1e9))
			}
		}
		// Left fold in order.
		var left Sketch
		for i := range parts {
			left.Merge(&parts[i])
		}
		// Reverse order.
		var right Sketch
		for i := len(parts) - 1; i >= 0; i-- {
			right.Merge(&parts[i])
		}
		// Pairwise tree.
		tree := append([]Sketch(nil), parts...)
		for len(tree) > 1 {
			var next []Sketch
			for i := 0; i < len(tree); i += 2 {
				s := tree[i]
				if i+1 < len(tree) {
					s.Merge(&tree[i+1])
				}
				next = append(next, s)
			}
			tree = next
		}
		return reflect.DeepEqual(left, right) && reflect.DeepEqual(left, tree[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchStateRoundTrip pins State/SetState as an exact round-trip,
// direct and through JSON — the fleet raw-snapshot wire property.
func TestSketchStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		var s Sketch
		for i, n := 0, rng.Intn(400); i < n; i++ {
			s.Add(math.Floor(rng.ExpFloat64() * 1e6))
		}
		if got := SketchFromState(s.State()); !reflect.DeepEqual(got, s) {
			t.Fatalf("trial %d: State round-trip diverged", trial)
		}
		data, err := json.Marshal(s.State())
		if err != nil {
			t.Fatal(err)
		}
		var st SketchState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if got := SketchFromState(st); !reflect.DeepEqual(got, s) {
			t.Fatalf("trial %d: JSON round-trip diverged", trial)
		}
	}
}

// TestSketchBoundedMemory pins the memory claim: however many samples are
// added across the full duration range, the counter window never exceeds
// SketchMaxBuckets entries.
func TestSketchBoundedMemory(t *testing.T) {
	var s Sketch
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		s.Add(math.Ldexp(1+rng.Float64(), rng.Intn(62)))
	}
	s.Add(0)
	s.Add(math.MaxFloat64) // clamps to the top bucket, must not explode
	if s.Buckets() > SketchMaxBuckets {
		t.Fatalf("window %d exceeds structural bound %d", s.Buckets(), SketchMaxBuckets)
	}
	if s.Count() != 200002 {
		t.Fatalf("count %d", s.Count())
	}
}

// TestSketchEdgeCases covers the zero bucket, negatives, NaN clamping,
// empty-sketch queries, and the defensive SetState truncation.
func TestSketchEdgeCases(t *testing.T) {
	var s Sketch
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatal("empty sketch not zero")
	}
	s.Add(-5)
	s.Add(math.NaN())
	s.Add(0.25)
	if s.zero != 3 || s.Quantile(1) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("sub-1ns values not collapsed to zero: %+v", s)
	}
	s.Record(2 * time.Millisecond)
	if got := s.QuantileDuration(1); relErr(float64(got), 2e6) > SketchRelErrBound {
		t.Fatalf("p100 = %v, want ~2ms", got)
	}
	if s.Min() != 0 || s.Max() != 2e6 {
		t.Fatalf("min/max %g/%g", s.Min(), s.Max())
	}

	// A hostile peer's state must truncate, not allocate unboundedly.
	huge := SketchState{Count: 1, Base: 100, Buckets: make([]uint64, 1<<20)}
	if got := SketchFromState(huge); got.Buckets() > SketchMaxBuckets {
		t.Fatalf("oversized state decoded to %d buckets", got.Buckets())
	}
	neg := SketchState{Count: 1, Base: -7, Buckets: []uint64{1}}
	if got := SketchFromState(neg); got.Buckets() != 0 {
		t.Fatalf("negative-base window kept %d buckets", got.Buckets())
	}
	// A base past the bucket range is dropped whole: State of the result
	// must be something SetState (and the snapshot wire) accepts back.
	far := SketchState{Count: 1, Base: SketchMaxBuckets + 5, Buckets: []uint64{1}}
	if got := SketchFromState(far); got.Buckets() != 0 || got.State().Base != 0 {
		t.Fatalf("out-of-range base kept: %+v", got.State())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range quantile did not panic")
		}
	}()
	s.Quantile(1.5)
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / b }

// TestAggregateGenericRoundTrip drives both accumulators through the one
// generic FromState round-trip and the shared Add/Merge surface — the
// contract collapse that replaced hand-rolled per-type code paths.
func TestAggregateGenericRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Floor(rng.ExpFloat64() * 1e6)
	}
	check := func(name string, same func() bool) {
		if !same() {
			t.Fatalf("%s: generic round-trip diverged", name)
		}
	}
	var w, w2 Welford
	var s, s2 Sketch
	for _, x := range xs[:250] {
		w.Add(x)
		s.Add(x)
	}
	for _, x := range xs[250:] {
		w2.Add(x)
		s2.Add(x)
	}
	w.Merge(&w2)
	s.Merge(&s2)
	check("welford", func() bool { return FromState[Welford](w.State()) == w })
	check("sketch", func() bool { return reflect.DeepEqual(FromState[Sketch](s.State()), s) })
}

// BenchmarkSketchAdd is the per-sample cost of folding latency observations
// into a sketch (stats.sketch_add_ns in the pipeline benchmark).
func BenchmarkSketchAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = math.Floor(rng.ExpFloat64() * 1e6)
	}
	var s Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&8191])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	if s.Count() == 0 {
		b.Fatal("no samples")
	}
}

// TestNewCDFSortedInputFastPath pins that pre-sorted input (Merge output
// order) survives NewCDF unchanged — the re-sort-skip satellite.
func TestNewCDFSortedInputFastPath(t *testing.T) {
	sorted := []float64{math.NaN(), 1, 2, 2, 3}
	c := NewCDF(sorted)
	if c.N() != 5 || c.Quantile(1) != 3 {
		t.Fatalf("sorted input mishandled: %+v", c)
	}
	unsorted := []float64{3, 1, math.NaN(), 2}
	if got := NewCDF(unsorted).Quantile(1); got != 3 {
		t.Fatalf("unsorted input mis-sorted: max %g", got)
	}
	for name, s := range map[string][]float64{
		"sorted":   sorted,
		"unsorted": unsorted,
		"empty":    nil,
	} {
		if got, want := fmt.Sprint(sortedFloats(s)), fmt.Sprint(name != "unsorted"); got != want {
			t.Fatalf("sortedFloats(%s) = %s, want %s", name, got, want)
		}
	}
}
