package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// relClose reports whether a and b agree within relative tolerance tol
// (absolute for values near zero).
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d <= tol
	}
	return d/scale <= tol
}

// TestWelfordShardedMergeEquivalence is the collector's merge invariant for
// Welford: splitting a stream across shards (every sample lands in exactly
// one shard, order preserved within a shard) and merging the shard
// accumulators matches sequential accumulation. Welford merging reassociates
// float additions, so equality is to a documented relative tolerance
// (1e-9, about seven orders of magnitude above ulp noise for these sizes),
// not bit-for-bit — the per-flow path IS bit-for-bit, because a flow's
// samples never split across shards.
func TestWelfordShardedMergeEquivalence(t *testing.T) {
	f := func(seed int64, shardCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		shards := 1 + int(shardCount%8)
		var seq Welford
		parts := make([]Welford, shards)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*50e3 + 200e3 // ns-scale latency samples
			seq.Add(x)
			parts[rng.Intn(shards)].Add(x)
		}
		var merged Welford
		for _, p := range parts {
			merged.Merge(&p)
		}
		return merged.N() == seq.N() &&
			relClose(merged.Mean(), seq.Mean(), 1e-9) &&
			relClose(merged.Var(), seq.Var(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCDFMergeEquivalence: merging partial CDFs must hold exactly the sample
// multiset of one CDF over the concatenated stream, bit-for-bit.
func TestCDFMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		all := make([]float64, 0, n)
		var a, b []float64
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			switch rng.Intn(10) {
			case 0:
				x = math.NaN()
			case 1:
				x = math.Inf(1)
			}
			all = append(all, x)
			if rng.Intn(2) == 0 {
				a = append(a, x)
			} else {
				b = append(b, x)
			}
		}
		merged := NewCDF(a).Merge(NewCDF(b))
		want := NewCDF(all)
		if merged.N() != want.N() {
			return false
		}
		for i := range merged.sorted {
			if math.Float64bits(merged.sorted[i]) != math.Float64bits(want.sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cdfBitsEqual compares two CDFs sample-for-sample at the bit level (so NaN
// payloads and signed zeros count too).
func cdfBitsEqual(a, b *CDF) bool {
	if len(a.sorted) != len(b.sorted) {
		return false
	}
	for i := range a.sorted {
		if math.Float64bits(a.sorted[i]) != math.Float64bits(b.sorted[i]) {
			return false
		}
	}
	return true
}

// TestCDFMergeAssociativeOrderInvariant is the fleet front-end's merge
// contract, stated as a property: split one sample stream into random
// shards, then merge the shard CDFs (a) as a left fold in shard order and
// (b) as a randomly shuffled, randomly associated pairwise reduction — both
// must equal one CDF built over the whole stream bit-for-bit. This is what
// lets rlirfleet merge per-instance error distributions in whatever order
// the scatter-gather responses land.
func TestCDFMergeAssociativeOrderInvariant(t *testing.T) {
	f := func(seed int64, shardCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		shards := 1 + int(shardCount%6)
		parts := make([][]float64, shards)
		all := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			switch rng.Intn(12) {
			case 0:
				x = math.NaN()
			case 1:
				x = math.Inf(1)
			}
			all = append(all, x)
			s := rng.Intn(shards)
			parts[s] = append(parts[s], x)
		}
		want := NewCDF(all)
		left := NewCDF(parts[0])
		for _, p := range parts[1:] {
			left = left.Merge(NewCDF(p))
		}
		cs := make([]*CDF, shards)
		for i, p := range parts {
			cs[i] = NewCDF(p)
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		for len(cs) > 1 {
			i := rng.Intn(len(cs) - 1)
			cs[i] = cs[i].Merge(cs[i+1])
			cs = append(cs[:i+1], cs[i+2:]...)
		}
		return cdfBitsEqual(left, want) && cdfBitsEqual(cs[0], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCDFMergeLeavesInputsIntact pins that Merge does not alias or mutate
// either input.
func TestCDFMergeLeavesInputsIntact(t *testing.T) {
	a := NewCDF([]float64{3, 1})
	b := NewCDF([]float64{2})
	m := a.Merge(b)
	if a.N() != 2 || b.N() != 1 || m.N() != 3 {
		t.Fatalf("sizes changed: a=%d b=%d m=%d", a.N(), b.N(), m.N())
	}
	if a.Min() != 1 || a.Max() != 3 || b.Min() != 2 {
		t.Fatalf("inputs mutated: a=[%v,%v] b=[%v]", a.Min(), a.Max(), b.Min())
	}
	if m.Min() != 1 || m.Median() != 2 || m.Max() != 3 {
		t.Fatalf("bad merge: %v %v %v", m.Min(), m.Median(), m.Max())
	}
}

func TestWelfordCI95(t *testing.T) {
	var w Welford
	if w.CI95() != 0 {
		t.Fatalf("empty CI95 = %v, want 0", w.CI95())
	}
	w.Add(1)
	if w.CI95() != 0 {
		t.Fatalf("n=1 CI95 = %v, want 0", w.CI95())
	}
	// n=2, samples {1, 3}: mean 2, sample var 2, se = 1, t(df=1) = 12.706.
	w.Add(3)
	if got := w.CI95(); !relClose(got, 12.706, 1e-12) {
		t.Fatalf("CI95 = %v, want 12.706", got)
	}
	// Large n converges to the normal 1.96 * se.
	var big Welford
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		big.Add(rng.NormFloat64())
	}
	se := math.Sqrt(big.SampleVar() / float64(big.N()))
	if got := big.CI95(); !relClose(got, 1.96*se, 1e-12) {
		t.Fatalf("large-n CI95 = %v, want %v", got, 1.96*se)
	}
}
