package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestWelfordStateRoundTrip pins the State/WelfordFromState pair as an exact
// round-trip, including through JSON — the property the fleet raw-snapshot
// wire depends on for bit-identical merged flow tables.
func TestWelfordStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var w Welford
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			w.Add(rng.NormFloat64() * 1e6)
		}
		got := WelfordFromState(w.State())
		if got != w {
			t.Fatalf("trial %d: State round-trip diverged: %+v != %+v", trial, got, w)
		}
		data, err := json.Marshal(w.State())
		if err != nil {
			t.Fatal(err)
		}
		var s WelfordState
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		if WelfordFromState(s) != w {
			t.Fatalf("trial %d: JSON round-trip diverged: %+v != %+v", trial, WelfordFromState(s), w)
		}
	}
}

// TestStateViewsMatchState pins the read-only view an encoder serializes
// from: field for field the State copy, with Buckets aliasing the sketch's
// own counters instead of copying them.
func TestStateViewsMatchState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		var s Sketch
		for i, n := 0, rng.Intn(200); i < n; i++ { // n == 0: the empty view
			s.Record(time.Duration(rng.Int63n(int64(time.Second))))
		}
		if sv := s.StateView(); !reflect.DeepEqual(sv, s.State()) {
			t.Fatalf("trial %d: sketch view %+v != state %+v", trial, sv, s.State())
		} else if len(sv.Buckets) > 0 && &sv.Buckets[0] != &s.buckets[0] {
			t.Fatalf("trial %d: sketch view copied its window", trial)
		}
	}
}

// TestSketchWindowsCarvedFromSlab pins CloneIn and SetStateIn: the copies
// equal Clone's and SetState's, sit back to back in the slab with capacity
// equal to length — so widening one reallocates instead of writing into the
// next — and fall back to allocation when the slab runs out.
func TestSketchWindowsCarvedFromSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := make([]Sketch, 12)
	total := 0
	for i := range src {
		for j, n := 0, rng.Intn(40); j < n; j++ { // some stay empty: nil window, no slab used
			src[i].Add(float64(1 + rng.Int63n(1e6)))
		}
		total += src[i].Buckets()
	}
	for _, via := range []string{"CloneIn", "SetStateIn"} {
		slab := make([]uint64, total)
		rest := slab
		got := make([]Sketch, len(src))
		for i := range src {
			if via == "CloneIn" {
				got[i], rest = src[i].CloneIn(rest)
			} else {
				rest = got[i].SetStateIn(src[i].StateView(), rest)
			}
			if want := src[i].Clone(); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s: sketch %d = %+v, want %+v", via, i, got[i], want)
			}
			if cap(got[i].buckets) != len(got[i].buckets) {
				t.Fatalf("%s: sketch %d window has capacity %d beyond its length %d", via, i, cap(got[i].buckets), len(got[i].buckets))
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d slab counters left over, windows should fill it exactly", via, len(rest))
		}
		want := make([]Sketch, len(got))
		for i := range got {
			want[i] = got[i].Clone()
		}
		for i := range got {
			got[i].Add(1)    // below every window
			got[i].Add(1e12) // above every window
			want[i].Add(1)
			want[i].Add(1e12)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: widening sketch %d disturbed a neighbour in the slab", via, i)
			}
		}
		// Out of slab: the window is allocated and the slab handed back whole.
		i := 0
		for src[i].Buckets() < 2 {
			i++
		}
		short := make([]uint64, src[i].Buckets()-1)
		cp, rest := src[i].CloneIn(short)
		if !reflect.DeepEqual(cp, src[i].Clone()) || len(rest) != len(short) {
			t.Fatalf("CloneIn with a short slab: clone %+v, %d of %d slab counters left", cp, len(rest), len(short))
		}
	}
}
