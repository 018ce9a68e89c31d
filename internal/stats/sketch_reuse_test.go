package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sketchMultiset draws a multiset that exercises every growth path: a base
// octave anywhere in the range, a spread from one bucket to tens of
// octaves, and the occasional sub-nanosecond value for the zero bucket.
func sketchMultiset(rng *rand.Rand) []float64 {
	n := rng.Intn(200)
	base, spread := rng.Intn(40), 1+rng.Intn(22)
	xs := make([]float64, n)
	for i := range xs {
		if rng.Intn(16) == 0 {
			xs[i] = rng.Float64() // zero bucket
			continue
		}
		xs[i] = math.Floor(math.Ldexp(1+rng.Float64(), base+rng.Intn(spread)))
	}
	return xs
}

func sketchOf(xs []float64) Sketch {
	var s Sketch
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// checkSketchStorage pins the two things capacity must never do: exceed the
// structural bound, or hold a stale counter past the window (the invariant
// in-place widening relies on to expose counters without clearing them).
func checkSketchStorage(t *testing.T, what string, s *Sketch) {
	t.Helper()
	if s.Buckets() > SketchMaxBuckets || cap(s.buckets) > SketchMaxBuckets {
		t.Fatalf("%s: window %d / capacity %d exceeds SketchMaxBuckets", what, s.Buckets(), cap(s.buckets))
	}
	for i, c := range s.buckets[len(s.buckets):cap(s.buckets)] {
		if c != 0 {
			t.Fatalf("%s: stale counter %d at storage offset %d past the window", what, c, len(s.buckets)+i)
		}
	}
}

// TestSketchCapacityIsNotRepresentation is the property in-place growth and
// Reset must keep: whatever order a multiset arrives in (ascending widens
// only the high side, descending only the low side), however often the
// sketch was reset and refilled before, and whether it was built by Add,
// Merge, SetState or Clone, the result is reflect.DeepEqual to the sketch a
// fresh value builds — so every bit-exact merge and DeepEqual proof that
// held for exact-fit windows still holds.
func TestSketchCapacityIsNotRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var recycled Sketch // carried across trials: every trial inherits storage
	for trial := 0; trial < 300; trial++ {
		xs := sketchMultiset(rng)
		asc := append([]float64(nil), xs...)
		sort.Float64s(asc)
		desc := make([]float64, len(asc))
		for i, x := range asc {
			desc[len(asc)-1-i] = x
		}
		want := sketchOf(xs)

		// Interleave resets with partial refills of unrelated data before
		// the fill that counts.
		for i, n := 0, rng.Intn(3); i < n; i++ {
			recycled.Reset()
			for _, x := range sketchMultiset(rng) {
				recycled.Add(x)
			}
			checkSketchStorage(t, "recycled junk fill", &recycled)
		}
		recycled.Reset()
		if recycled.Count() != 0 || recycled.Buckets() != 0 || recycled.Quantile(0.5) != 0 {
			t.Fatalf("trial %d: Reset left count %d, window %d", trial, recycled.Count(), recycled.Buckets())
		}
		for _, x := range desc {
			recycled.Add(x)
		}

		cut := 0
		if len(xs) > 0 {
			cut = rng.Intn(len(xs))
		}
		merged, tail := sketchOf(xs[:cut]), sketchOf(xs[cut:])
		merged.Merge(&tail)
		mergedIntoRecycled := sketchOf(sketchMultiset(rng))
		mergedIntoRecycled.Reset()
		mergedIntoRecycled.Merge(&want)

		built := map[string]Sketch{
			"ascending":           sketchOf(asc),
			"descending":          sketchOf(desc),
			"reset+refill":        recycled,
			"merge":               merged,
			"merge into recycled": mergedIntoRecycled,
			"SetState":            SketchFromState(want.State()),
			"Clone":               want.Clone(),
			"Clone of recycled":   recycled.Clone(),
		}
		for name, got := range built {
			checkSketchStorage(t, name, &got)
			if want.Buckets() == 0 {
				// Only here may a recycled sketch differ from a fresh one:
				// its empty window is non-nil. Clone is the canonical form.
				got = got.Clone()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s sketch differs from the fresh one\n got  %+v\n want %+v", trial, name, got, want)
			}
		}
		if c := want.Clone(); cap(c.buckets) != len(c.buckets) || (len(c.buckets) == 0 && c.buckets != nil) {
			t.Fatalf("trial %d: Clone window len %d cap %d nil %v, want exact-length or nil",
				trial, len(c.buckets), cap(c.buckets), c.buckets == nil)
		}
	}
}

// TestSketchCloneNeverAliases pins what snapshots rely on: a clone is
// untouched by anything that later happens to the original's storage —
// counting in place, widening in place, or a Reset and a different tenant.
func TestSketchCloneNeverAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		s := sketchOf(sketchMultiset(rng))
		clone, frozen := s.Clone(), s.State()
		for _, x := range sketchMultiset(rng) {
			s.Add(x)
		}
		s.Reset()
		for _, x := range sketchMultiset(rng) {
			s.Add(x)
		}
		if !reflect.DeepEqual(clone.State(), frozen) {
			t.Fatalf("trial %d: clone changed when the original's storage was reused", trial)
		}
	}
}

// TestZeroAllocSketchWidenInCapacity is the sketch's garbage gate: once
// storage covers a window, refilling it after Reset — first bucket, low-side
// shifts, high-side reslices — allocates nothing.
func TestZeroAllocSketchWidenInCapacity(t *testing.T) {
	xs := []float64{5e5, 9e5, 3e5, 4e6, 1e5, 2e7, 7e4, 1e8, 0.5, 6e5}
	var s Sketch
	for _, x := range xs {
		s.Add(x)
	}
	want := sketchOf(xs)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for _, x := range xs {
			s.Add(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset + refill inside existing capacity allocated %.1f times per run, want 0", allocs)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatal("recycled sketch differs from a fresh one after the gate's refills")
	}
}
