package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// log2Streams are the integer-nanosecond streams the sketch-derived
// histogram is held to: the three shapes the repository's latencies take,
// each salted with the values where the two bucket layouts could disagree —
// 0 and 1 (the sketch's zero bucket vs its octave 0, both Histogram bucket
// 0), negatives (both clamp to 0) and every power of two below 2^53 with
// its neighbours (octave boundaries).
func log2Streams(rng *rand.Rand, n int) map[string][]time.Duration {
	edges := []time.Duration{0, 1, -1, -12345, math.MinInt64}
	for k := 1; k <= 52; k++ {
		p := time.Duration(1) << k
		edges = append(edges, p-1, p, p+1)
	}
	edges = append(edges, 1<<53-1) // the largest value the claim covers

	streams := map[string][]time.Duration{"edges-only": edges}
	gen := map[string]func() time.Duration{
		"uniform": func() time.Duration { return time.Duration(rng.Int63n(int64(10 * time.Millisecond))) },
		"pareto": func() time.Duration { // shape 1.2, scale 1 µs: a tail spanning ~20 octaves
			return time.Duration(1000 * math.Pow(1-rng.Float64(), -1/1.2))
		},
		"bimodal": func() time.Duration { // queueing vs no queueing, 1000x apart
			if rng.Intn(4) == 0 {
				return time.Duration(5e6 + rng.NormFloat64()*1e6)
			}
			return time.Duration(5e3 + rng.NormFloat64()*2e3) // dips below zero now and then
		},
	}
	for name, next := range gen {
		s := make([]time.Duration, 0, n+len(edges))
		for i := 0; i < n; i++ {
			s = append(s, min(next(), 1<<53-1))
		}
		s = append(s, edges...)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		streams[name] = s
	}
	return streams
}

// requireLog2Equal compares everything a sketch-derived histogram promises:
// every bucket, Count, Min and Max — not Sum, which a sketch cannot know.
func requireLog2Equal(t *testing.T, what string, got, want Histogram) {
	t.Helper()
	if got.buckets != want.buckets {
		t.Fatalf("%s: buckets differ\n got %v\nwant %v", what, got.buckets, want.buckets)
	}
	if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: count/min/max = %d/%v/%v, want %d/%v/%v", what,
			got.Count(), got.Min(), got.Max(), want.Count(), want.Min(), want.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} { // quantiles read buckets and max only
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, got.Quantile(q), want.Quantile(q))
		}
	}
}

// TestSketchLog2HistogramMatchesHistogram is what lets a flow aggregate drop
// its Histogram: for integer-nanosecond observations below 2^53 ns — float64
// holds every such integer, so Sketch.Record loses nothing converting — the
// histogram derived from a sketch equals a Histogram fed the same Record
// calls in every bucket, Count, Min and Max, whether the sketch saw the
// stream whole or was merged from arbitrary parts in arbitrary order. At
// 2^53 ns and beyond a duration just under a power of two rounds up into
// the next octave and the claim stops.
func TestSketchLog2HistogramMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for name, stream := range log2Streams(rng, 4000) {
		var want Histogram
		var whole Sketch
		for _, d := range stream {
			want.Record(d)
			whole.Record(d)
		}
		requireLog2Equal(t, name+" whole", whole.Log2Histogram(), want)

		for trial := 0; trial < 20; trial++ {
			// Deal the stream into 1–8 parts (some may stay empty), then fold
			// the parts in a random order, sometimes pairwise first.
			parts := make([]Sketch, 1+rng.Intn(8))
			for _, d := range stream {
				parts[rng.Intn(len(parts))].Record(d)
			}
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			for len(parts) > 1 && rng.Intn(2) == 0 {
				parts[0].Merge(&parts[len(parts)-1])
				parts = parts[:len(parts)-1]
			}
			var merged Sketch
			for i := len(parts) - 1; i >= 0; i-- {
				merged.Merge(&parts[i])
			}
			requireLog2Equal(t, name+" merged", merged.Log2Histogram(), want)
		}
	}

	var empty Sketch
	if got := empty.Log2Histogram(); got != (Histogram{}) {
		t.Fatalf("empty sketch derives %+v, want the zero histogram", got)
	}
	// The state a wire peer may send is bounded to the structural window, so
	// the derivation indexes inside the 64 buckets whatever it carries.
	last := SketchFromState(SketchState{Count: 1, Base: SketchMaxBuckets - 1, Buckets: []uint64{1, 1, 1}, Max: math.Inf(1)})
	if got := last.Log2Histogram(); got.buckets[HistogramBuckets-1] != 1 {
		t.Fatalf("last structural bucket derives %v", got.buckets)
	}
}
