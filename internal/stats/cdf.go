package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an exact empirical cumulative distribution function over a finite
// sample, the form in which the paper presents every accuracy result
// (Figures 4(a)-4(c)).
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the given samples. The input slice is copied —
// one O(n) allocation plus an O(n log n) sort per call — so build a CDF
// once and reuse Quantile/FracBelow/Median (each O(log n) or O(1)) rather
// than rebuilding per query. Input that is already sorted (for example the
// sample multiset of a Merge result, which Merge keeps sorted) skips the
// sort entirely. Non-finite samples (NaN, ±Inf) are kept and sorted to the
// extremes so that flows with undefined relative error still count in the
// denominator, exactly as a plotted CDF that never reaches 1.0 would show
// them.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	c := CDFOver(s)
	return &c
}

// CDFOver is NewCDF without the copy: it sorts samples in place and keeps
// them as the CDF's storage, allocating nothing, so the caller must leave
// them alone while it uses the CDF.
func CDFOver(samples []float64) CDF {
	if !sortedFloats(samples) {
		sort.Float64s(samples) // sort.Float64s orders NaNs first; treat below.
	}
	return CDF{sorted: samples}
}

// sortedFloats reports whether s is already in sort.Float64s order (NaNs
// first, then ascending) — the O(n) check that lets NewCDF skip re-sorting
// pre-sorted input.
func sortedFloats(s []float64) bool {
	for i := 1; i < len(s); i++ {
		if floatBefore(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// FracBelow returns the fraction of samples <= x. With no samples it
// returns 0.
func (c *CDF) FracBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Merge returns a new CDF over the union multiset of both sample sets.
// Merging is a single O(n+m) linear merge of the two sorted slices under
// sort.Float64s's ordering (NaNs first, then ascending) — never a re-sort —
// so Merge(a, b) holds exactly the samples NewCDF(append(a.samples,
// b.samples...)) would: merging partial CDFs (per-shard or per-run error
// distributions) equals building one CDF over the whole stream. Neither
// input is modified.
func (c *CDF) Merge(o *CDF) *CDF {
	merged := make([]float64, 0, len(c.sorted)+len(o.sorted))
	i, j := 0, 0
	for i < len(c.sorted) && j < len(o.sorted) {
		if floatBefore(c.sorted[i], o.sorted[j]) {
			merged = append(merged, c.sorted[i])
			i++
		} else {
			merged = append(merged, o.sorted[j])
			j++
		}
	}
	merged = append(merged, c.sorted[i:]...)
	merged = append(merged, o.sorted[j:]...)
	return &CDF{sorted: merged}
}

// floatBefore replicates sort.Float64s's ordering predicate: NaNs sort
// before everything, then ascending values.
func floatBefore(x, y float64) bool {
	return x < y || (math.IsNaN(x) && !math.IsNaN(y))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. It panics on an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		panic("stats: quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Median returns the 0.5-quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Point is one (x, y) coordinate of a CDF curve: fraction y of samples are
// <= value x.
type Point struct {
	X float64
	Y float64
}

// Points returns up to n evenly spaced (in rank) points of the curve,
// suitable for plotting. The first and last samples are always included.
func (c *CDF) Points(n int) []Point {
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil
	}
	if n > m {
		n = m
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		rank := i * (m - 1) / max(n-1, 1)
		pts = append(pts, Point{X: c.sorted[rank], Y: float64(rank+1) / float64(m)})
	}
	return pts
}

// LogPoints returns the curve sampled at n logarithmically spaced x values
// between lo and hi (inclusive), matching the log-x axes of Figure 4.
func (c *CDF) LogPoints(lo, hi float64, n int) []Point {
	if lo <= 0 || hi <= lo || n < 2 {
		panic("stats: LogPoints requires 0 < lo < hi and n >= 2")
	}
	pts := make([]Point, 0, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := 0; i < n; i++ {
		pts = append(pts, Point{X: x, Y: c.FracBelow(x)})
		x *= ratio
	}
	return pts
}

// Render draws an ASCII CDF table of the curve at logarithmic x ticks; it is
// the textual stand-in for the paper's figures. An empty CDF has no median
// and no curve: it renders as its n=0 header alone.
func (c *CDF) Render(label string, lo, hi float64, n int) string {
	var b strings.Builder
	if c.N() == 0 {
		fmt.Fprintf(&b, "%s n=0\n", label)
		return b.String()
	}
	fmt.Fprintf(&b, "%s n=%d median=%.4g\n", label, c.N(), c.Median())
	for _, p := range c.LogPoints(lo, hi, n) {
		bar := strings.Repeat("#", int(p.Y*40+0.5))
		fmt.Fprintf(&b, "  x<=%-10.3g %6.1f%% %s\n", p.X, p.Y*100, bar)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
