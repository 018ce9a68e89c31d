package runner

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestMapOrderAndCoverage: results land at their seed's index for any
// worker count, every seed runs exactly once.
func TestMapOrderAndCoverage(t *testing.T) {
	seeds := Seeds(99, 17)
	for _, workers := range []int{1, 2, 4, 32} {
		got := Map(seeds, workers, func(i int, seed int64) [2]int64 {
			time.Sleep(time.Duration(i%3) * time.Millisecond) // scramble completion order
			return [2]int64{int64(i), seed}
		})
		for i := range got {
			if got[i][0] != int64(i) || got[i][1] != seeds[i] {
				t.Fatalf("workers=%d: slot %d holds run %v", workers, i, got[i])
			}
		}
	}
}

// TestMapWorkerCountInvariance: a deterministic job yields bit-identical
// results regardless of parallelism — the runner's core contract.
func TestMapWorkerCountInvariance(t *testing.T) {
	seeds := Seeds(3, 12)
	job := func(i int, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, 50)
		for j := range out {
			out[j] = rng.NormFloat64()
		}
		return out
	}
	want := Map(seeds, 1, job)
	for _, workers := range []int{2, 3, 8} {
		if got := Map(seeds, workers, job); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from sequential run", workers)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to >= 1")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}
