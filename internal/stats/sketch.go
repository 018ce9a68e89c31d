package stats

import (
	"fmt"
	"math"
	"time"
)

// Sketch is a bounded-memory quantile sketch over non-negative latency
// values (float64 nanoseconds), DDSketch-style with a fixed log-linear
// bucket layout: each power-of-two octave is subdivided into 32 linear
// subbuckets, values in [0, 1) land in a dedicated zero bucket (latencies
// are integer nanoseconds, so those values are exactly 0). The layout is
// structural — bucket i's bounds depend only on i, never on the data — so
// the sketch never rebalances and two sketches always merge by elementwise
// counter addition: Merge is bit-exact under any merge order, even when
// both operands are non-empty (a stronger property than Welford's, and the
// one the fleet tier's rollup merging relies on).
//
// Memory is bounded by construction: the counter window spans only the
// buckets between the smallest and largest observed values (a flow whose
// latencies span one order of magnitude touches ~110 buckets) and can
// never exceed SketchMaxBuckets entries regardless of how many samples are
// added — unlike an exact CDF, whose memory grows linearly with samples.
//
// Accuracy: Quantile returns the midpoint of the bucket holding the exact
// nearest-rank sample, so its relative error vs the exact CDF quantile is
// at most SketchRelErrBound (1/64 ≈ 1.6%); values in [0, 1) are returned
// as exactly 0. The bound is pinned by property test against stats.CDF.
//
// The zero value is ready to use.
type Sketch struct {
	zero    uint64 // observations in [0, 1) ns, represented exactly as 0
	count   uint64
	base    int32 // bucket index of buckets[0]
	buckets []uint64
	min     float64
	max     float64
}

const (
	sketchSubBits    = 5
	sketchSubBuckets = 1 << sketchSubBits // 32 linear subbuckets per octave

	// SketchMaxBuckets is the structural ceiling on a sketch's counter
	// window: 64 octaves x 32 subbuckets. A sketch can never allocate more
	// bucket counters than this, whatever its input.
	SketchMaxBuckets = 64 * sketchSubBuckets

	// SketchRelErrBound is the worst-case relative error of Quantile vs the
	// exact nearest-rank quantile over the same samples: half a bucket's
	// width over its lower bound, (2^o/32/2) / 2^o = 1/64.
	SketchRelErrBound = 1.0 / 64
)

// sketchIndex maps a value >= 1 to its bucket: octave (floor log2) times 32
// plus the linear subbucket within the octave.
func sketchIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	octave := exp - 1
	if octave > 63 {
		return SketchMaxBuckets - 1
	}
	sub := int((frac*2 - 1) * sketchSubBuckets)
	if sub >= sketchSubBuckets {
		sub = sketchSubBuckets - 1
	}
	return octave<<sketchSubBits | sub
}

// sketchValue is bucket idx's representative: the midpoint of its bounds
// [2^o(1+s/32), 2^o(1+(s+1)/32)).
func sketchValue(idx int) float64 {
	octave := idx >> sketchSubBits
	sub := idx & (sketchSubBuckets - 1)
	lo := math.Ldexp(1+float64(sub)/sketchSubBuckets, octave)
	hi := math.Ldexp(1+float64(sub+1)/sketchSubBuckets, octave)
	return (lo + hi) / 2
}

// Add folds one observation. Negative and NaN values are clamped to zero
// (they can only arise from clock desynchronization, tracked separately by
// callers); values in [0, 1) collapse to exactly 0 — min/max included —
// since latencies are integer nanoseconds.
func (s *Sketch) Add(x float64) {
	if x < 1 || math.IsNaN(x) {
		x = 0 // sub-1ns values are represented exactly as 0 (the zero bucket)
	}
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	if x < 1 {
		s.zero++
		return
	}
	idx := sketchIndex(x)
	i := idx - int(s.base)
	if uint(i) >= uint(len(s.buckets)) { // outside the window, or no window yet
		s.ensure(idx, idx)
		i = idx - int(s.base)
	}
	s.buckets[i]++
}

// Record adds one duration (the time.Duration face of Add).
func (s *Sketch) Record(d time.Duration) { s.Add(float64(d)) }

// ensure grows the counter window to cover bucket indices [lo, hi]. The
// window's ends always hold non-zero counters (counters only grow, and a
// window only extends to a bucket that is immediately incremented), so the
// representation — len, base, counters — is a pure function of the observed
// multiset: what makes DeepEqual comparisons and bit-exact merges possible.
//
// Capacity is not representation. The window lives at the front of a
// backing array whose capacity is rounded up (sketchCap), so most widenings
// reslice instead of allocating: a high-side widening exposes more of the
// array, a low-side one first shifts the counters up within it. Storage
// past len is kept zero (see Reset), so an exposed counter needs no
// clearing.
func (s *Sketch) ensure(lo, hi int) {
	n := len(s.buckets)
	if n == 0 {
		s.base = int32(lo)
		s.buckets = sketchWindow(s.buckets, hi-lo+1)
		return
	}
	b := int(s.base)
	end := b + n - 1
	if lo >= b && hi <= end {
		return
	}
	nb, ne := min(lo, b), max(hi, end)
	shift := b - nb
	grown := sketchWindow(s.buckets, ne-nb+1)
	copy(grown[shift:], s.buckets[:n])
	if shift > 0 && &grown[0] == &s.buckets[0] {
		clear(grown[:min(shift, n)]) // vacated by the in-place shift
	}
	s.base = int32(nb)
	s.buckets = grown
}

// sketchMinCap is the smallest backing array a window gets: one cache
// line's worth of counters, so a young flow's first widenings are free.
const sketchMinCap = 8

// sketchCap rounds a window length up to the capacity it is allocated
// with: the next power of two, at least sketchMinCap and — because a window
// never exceeds SketchMaxBuckets, itself a power of two — never beyond
// SketchMaxBuckets. Slack is therefore under 2x the window.
func sketchCap(n int) int {
	c := sketchMinCap
	for c < n {
		c <<= 1
	}
	return c
}

// sketchWindow returns a window of n counters: buf resliced when its
// capacity allows (counters past len(buf) are zero by invariant), otherwise
// a fresh zeroed array of rounded-up capacity. The caller copies the old
// counters across.
func sketchWindow(buf []uint64, n int) []uint64 {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]uint64, n, sketchCap(n))
}

// Reset empties the sketch for reuse, as if freshly declared, but keeps its
// counter storage (cleared), so a recycled sketch refills without
// allocating. The storage only ever grows — a sketch handed from tenant to
// tenant settles at the widest window any of them reached, rounded up — but
// never past SketchMaxBuckets counters.
//
// A reset sketch that has since observed at least one value >= 1 is
// reflect.DeepEqual to a fresh sketch fed the same values; before that its
// empty window is non-nil where a fresh sketch's is nil — State and Clone
// render both as nil.
func (s *Sketch) Reset() {
	clear(s.buckets)
	*s = Sketch{buckets: s.buckets[:0]}
}

// Clone returns an independent copy of the sketch in canonical form: one
// exact-length copy of the counter window, nil for an empty one. The clone
// shares no storage with s, whatever s's capacity or history.
func (s *Sketch) Clone() Sketch {
	cp, _ := s.CloneIn(nil)
	return cp
}

// CloneIn is Clone with the counter window carved off the front of slab
// instead of allocated, so a table of clones costs one allocation sized by
// the sum of Buckets() rather than one per sketch. It returns the clone and
// the rest of slab. The carved window's capacity is its length: widening the
// clone later reallocates and never writes into what follows it in the slab.
// A slab too short for the window (nil included) is left alone and the
// window allocated.
func (s *Sketch) CloneIn(slab []uint64) (Sketch, []uint64) {
	cp := *s
	cp.buckets, slab = carveWindow(slab, len(s.buckets))
	copy(cp.buckets, s.buckets)
	return cp, slab
}

// carveWindow takes a window of n counters off the front of slab,
// capacity-limited to n, and returns it with the rest of slab: nil for
// n == 0 (the canonical empty window), a fresh exact-length array when slab
// is too short. The caller overwrites every counter.
func carveWindow(slab []uint64, n int) (win, rest []uint64) {
	switch {
	case n == 0:
		return nil, slab
	case n > len(slab):
		return make([]uint64, n), slab
	}
	return slab[:n:n], slab[n:]
}

// Merge folds o into s. Elementwise integer addition over an aligned
// window plus min/max comparisons: exactly associative and commutative, so
// any merge order over any partition of a stream yields the identical
// sketch. o is not modified.
func (s *Sketch) Merge(o *Sketch) {
	if o.count == 0 {
		return
	}
	if s.count == 0 {
		buf := s.buckets
		clear(buf) // empty unless a wire peer sent a window with no count
		*s = *o
		s.buckets = buf[:0]
		if n := len(o.buckets); n > 0 {
			s.buckets = sketchWindow(s.buckets, n)
			copy(s.buckets, o.buckets)
		}
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.zero += o.zero
	s.count += o.count
	if len(o.buckets) > 0 {
		s.ensure(int(o.base), int(o.base)+len(o.buckets)-1)
		off := int(o.base) - int(s.base)
		for i, c := range o.buckets {
			s.buckets[off+i] += c
		}
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Min returns the smallest observation (exact, not bucketed).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest observation (exact, not bucketed).
func (s *Sketch) Max() float64 { return s.max }

// Buckets returns the number of allocated bucket counters — the sketch's
// memory footprint in window entries (<= SketchMaxBuckets).
func (s *Sketch) Buckets() int { return len(s.buckets) }

// Quantile returns the q-quantile (0 <= q <= 1) under nearest-rank
// semantics: the representative of the bucket holding the q-th ranked
// observation, within SketchRelErrBound of the exact sample. An empty
// sketch returns 0; out-of-range q panics, matching CDF.Quantile.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	if rank <= s.zero {
		return 0
	}
	seen := s.zero
	for i, c := range s.buckets {
		seen += c
		if seen >= rank {
			return sketchValue(int(s.base) + i)
		}
	}
	return s.max
}

// QuantileDuration returns Quantile as a duration, rounded down.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// SketchState is the exported internal state of a Sketch: the counter
// window verbatim plus the scalar fields. Like WelfordState it exists for
// the fleet raw-snapshot wire — State → JSON → SketchFromState is
// bit-identical.
type SketchState struct {
	Zero    uint64   `json:"zero,omitempty"`
	Count   uint64   `json:"count"`
	Base    int32    `json:"base,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
}

// State returns the sketch's exact internal state.
func (s *Sketch) State() SketchState {
	st := s.StateView()
	st.Buckets = append([]uint64(nil), st.Buckets...)
	return st
}

// StateView is State without the copy: Buckets aliases the sketch's own
// counter window, so the view is read-only and valid only until the sketch
// is next mutated — what an encoder that serializes and drops the state
// wants.
func (s *Sketch) StateView() SketchState {
	st := SketchState{Zero: s.zero, Count: s.count, Base: s.base, Min: s.min, Max: s.max}
	if len(s.buckets) > 0 {
		st.Buckets = s.buckets
	}
	return st
}

// SetState rebuilds the sketch from exported state, bit-identical to the
// sketch State was called on. A wire peer's window is never trusted to
// allocate unboundedly or index out of range: one based outside the
// structural bucket range is dropped, one running past its end truncated.
func (s *Sketch) SetState(st SketchState) { s.SetStateIn(st, nil) }

// SetStateIn is SetState with the counter window carved off the front of
// slab (see CloneIn, whose carving rules it shares); it returns the rest of
// slab.
func (s *Sketch) SetStateIn(st SketchState, slab []uint64) []uint64 {
	*s = Sketch{zero: st.Zero, count: st.Count, base: st.Base, min: st.Min, max: st.Max}
	n := len(st.Buckets)
	if st.Base < 0 || st.Base >= SketchMaxBuckets {
		s.base, n = 0, 0 // nonsense window: drop it
	}
	if max := SketchMaxBuckets - int(s.base); n > max {
		n = max
	}
	s.buckets, slab = carveWindow(slab, n)
	copy(s.buckets, st.Buckets)
	return slab
}

// SketchFromState rebuilds a sketch from exported state (the generic
// FromState round-trip).
func SketchFromState(s SketchState) Sketch {
	return FromState[Sketch](s)
}
