package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.FracBelow(2); got != 0.5 {
		t.Fatalf("FracBelow(2) = %v, want 0.5", got)
	}
	if got := c.FracBelow(0.5); got != 0 {
		t.Fatalf("FracBelow(0.5) = %v, want 0", got)
	}
	if got := c.FracBelow(4); got != 1 {
		t.Fatalf("FracBelow(4) = %v, want 1", got)
	}
	if got := c.Median(); got != 2 {
		t.Fatalf("Median = %v, want 2", got)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{5, 1}
	c := NewCDF(in)
	in[0] = -100
	if c.Max() != 5 {
		t.Fatal("CDF aliased caller's slice")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {1, 50},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty CDF")
		}
	}()
	NewCDF(nil).Quantile(0.5)
}

func TestFracBelowMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe1, probe2 float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe1) || math.IsNaN(probe2) {
			return true
		}
		c := NewCDF(xs)
		lo, hi := probe1, probe2
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.FracBelow(lo) <= c.FracBelow(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileFracBelowInverseProperty(t *testing.T) {
	// FracBelow(Quantile(q)) >= q for all q in (0,1].
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	c := NewCDF(xs)
	for q := 0.01; q <= 1.0; q += 0.01 {
		if got := c.FracBelow(c.Quantile(q)); got < q-1e-12 {
			t.Fatalf("FracBelow(Quantile(%v)) = %v < q", q, got)
		}
	}
}

func TestPoints(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := NewCDF(xs)
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points = %d, want 5", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 10 {
		t.Fatalf("endpoints = %v, %v", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
	if got := c.Points(100); len(got) != len(xs) {
		t.Fatalf("Points(100) on 10 samples = %d points", len(got))
	}
	if NewCDF(nil).Points(5) != nil {
		t.Fatal("Points on empty CDF should be nil")
	}
}

func TestLogPoints(t *testing.T) {
	c := NewCDF([]float64{0.001, 0.01, 0.1, 1, 10})
	pts := c.LogPoints(1e-3, 1e1, 5)
	if len(pts) != 5 {
		t.Fatalf("LogPoints = %d points", len(pts))
	}
	// x values should be 1e-3..1e1 log spaced.
	wantX := []float64{1e-3, 1e-2, 1e-1, 1, 10}
	for i := range pts {
		if math.Abs(pts[i].X-wantX[i])/wantX[i] > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, pts[i].X, wantX[i])
		}
	}
	if pts[4].Y != 1 {
		t.Fatalf("final Y = %v, want 1", pts[4].Y)
	}
}

func TestRenderSmokes(t *testing.T) {
	c := NewCDF([]float64{0.01, 0.02, 0.5, 1.2})
	out := c.Render("test", 1e-3, 1e1, 6)
	if len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestRenderEmptyCDF: a run that produced no estimates (a tandem spec with
// scheme none) still renders — the header with n=0, no median, no rows —
// while Quantile keeps its panic for callers that index.
func TestRenderEmptyCDF(t *testing.T) {
	out := NewCDF(nil).Render("relative error", 1e-3, 1e1, 9)
	if want := "relative error n=0\n"; out != want {
		t.Fatalf("empty render = %q, want %q", out, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile of an empty CDF did not panic")
		}
	}()
	NewCDF(nil).Median()
}

func TestCDFSortedInternally(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	c := NewCDF(xs)
	if !sort.Float64sAreSorted(c.sorted) {
		t.Fatal("internal samples not sorted")
	}
}
