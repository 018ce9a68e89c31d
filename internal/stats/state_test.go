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

// TestStateViewsMatchState pins the read-only views an encoder serializes
// from: Bins yields exactly the non-empty counters of the State window, in
// index order, whichever form holds them, and stops when told to; Window is
// the State window itself for a dense sketch and nil for a sparse one.
func TestStateViewsMatchState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		var s Sketch
		for i, n := 0, rng.Intn(1+trial); i < n; i++ { // n == 0: the empty view
			s.Record(time.Duration(rng.Int63n(int64(time.Second))))
		}
		st := s.State()
		var want, got [][2]uint64
		for i, c := range st.Buckets {
			if c != 0 {
				want = append(want, [2]uint64{uint64(int(st.Base) + i), c})
			}
		}
		for idx, c := range s.Bins {
			got = append(got, [2]uint64{uint64(idx), c})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bins %v, state window holds %v", trial, got, want)
		}
		if base, win := s.Window(); (win != nil) != s.dense ||
			win != nil && (int32(base) != st.Base || !reflect.DeepEqual(win, st.Buckets)) {
			t.Fatalf("trial %d: window %d+%v of a sketch dense=%v, state %d+%v", trial, base, win, s.dense, st.Base, st.Buckets)
		}
		if len(want) > 1 {
			n := 0
			for range s.Bins {
				if n++; n == 1 {
					break
				}
			}
		}
	}
}

// TestSketchWindowsCarvedFromSlab pins CloneIn and SetBinsIn: the copies
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
	for _, via := range []string{"CloneIn", "SetBinsIn"} {
		slab := make([]uint64, total)
		rest := slab
		got := make([]Sketch, len(src))
		for i := range src {
			if via == "CloneIn" {
				got[i], rest = src[i].CloneIn(rest)
			} else {
				rest = got[i].SetBinsIn(src[i].State(), binsOf(&src[i]), rest)
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
