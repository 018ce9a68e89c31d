package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestMergedRunsMatchSummarize pins Run.Merge to Summarize over the
// concatenation: random result sets cut into random parts (empty ones
// included) whose errors hold NaN, ±Inf, 0 and repeats, merged in order and
// as a balanced tree, give the whole set's Summary bit for bit, and that
// Summary is the fold over one sort of every error.
func TestMergedRunsMatchSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.1, 0.5}
	same := func(a, b Summary) bool {
		return a.Flows == b.Flows && a.Estimates == b.Estimates && a.TrueMeanDelay == b.TrueMeanDelay &&
			math.Float64bits(a.MedianRelErr) == math.Float64bits(b.MedianRelErr) &&
			math.Float64bits(a.P90RelErr) == math.Float64bits(b.P90RelErr) &&
			math.Float64bits(a.FracUnder10Pct) == math.Float64bits(b.FracUnder10Pct)
	}
	for trial := range 300 {
		results := make([]FlowResult, rng.Intn(200))
		for i := range results {
			err := rng.ExpFloat64() / 4
			if rng.Intn(5) == 0 {
				err = special[rng.Intn(len(special))]
			}
			results[i] = FlowResult{
				N:          int64(1 + rng.Intn(1000)),
				TrueMean:   time.Duration(1 + rng.Intn(1e7)),
				RelErrMean: err,
			}
		}
		var parts []Run
		for off := 0; off < len(results) || len(parts) == 0; {
			n := rng.Intn(len(results) - off + 1)
			if rng.Intn(4) == 0 {
				n = 0
			}
			parts = append(parts, RunOf(results[off:off+n]))
			off += n
		}
		var chained Run
		for _, p := range parts {
			chained = chained.Merge(p)
		}
		for len(parts) > 1 {
			var next []Run
			for i := 0; i < len(parts); i += 2 {
				if i+1 < len(parts) {
					next = append(next, parts[i].Merge(parts[i+1]))
				} else {
					next = append(next, parts[i])
				}
			}
			parts = next
		}
		want := Summarize(results)
		if len(results) > 0 {
			// The one-sort fold: every error sorted together, the
			// weighted delay summed in float64 in input order.
			cdf := MeanErrCDF(results)
			var tw float64
			for _, r := range results {
				tw += float64(r.TrueMean) * float64(r.N)
			}
			if cdf.Median() != want.MedianRelErr && !math.IsNaN(want.MedianRelErr) ||
				time.Duration(tw/float64(want.Estimates)) != want.TrueMeanDelay {
				t.Fatalf("trial %d: Summarize %+v departs from the one-sort fold", trial, want)
			}
		}
		if got := chained.Summary(); !same(got, want) {
			t.Fatalf("trial %d: chained merge %+v, Summarize %+v", trial, got, want)
		}
		if got := parts[0].Summary(); !same(got, want) {
			t.Fatalf("trial %d: tree merge %+v, Summarize %+v", trial, got, want)
		}
	}
}
