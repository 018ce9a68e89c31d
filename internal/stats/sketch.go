package stats

import (
	"fmt"
	"math"
	"math/bits"
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
// Memory follows what the sketch holds. While at most sketchMinCap buckets
// are non-empty (and each holds under 2^53 counts) the sketch is sparse: it
// stores those buckets as sorted packed (index, count) words, one cache line
// at most — the form most flows never leave. Past that it is dense: a
// counter window spanning the buckets between the smallest and largest
// observed values (a flow whose latencies span one order of magnitude
// touches ~110 buckets), never more than SketchMaxBuckets entries
// regardless of how many samples are added — unlike an exact CDF, whose
// memory grows linearly with samples. The form is a pure function of the
// observed multiset, like everything else DeepEqual sees.
//
// Accuracy: Quantile returns the midpoint of the bucket holding the exact
// nearest-rank sample, so its relative error vs the exact CDF quantile is
// at most SketchRelErrBound (1/64 ≈ 1.6%); values in [0, 1) are returned
// as exactly 0. The bound is pinned by property test against stats.CDF.
//
// The zero value is ready to use.
type Sketch struct {
	zero  uint64 // observations in [0, 1) ns, represented exactly as 0
	count uint64
	base  int32 // dense: bucket index of buckets[0]; 0 while sparse
	dense bool
	// buckets is the dense counter window, or the sparse form's packed
	// bins in ascending index order.
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

// A sparse bin packs a bucket index (11 bits) above its count (53 bits), so
// bins sort by index as plain integers.
const (
	binCountBits = 53
	binMaxCount  = 1<<binCountBits - 1
)

func packBin(idx int, c uint64) uint64 { return uint64(idx)<<binCountBits | c }
func binIndex(b uint64) int            { return int(b >> binCountBits) }
func binCount(b uint64) uint64         { return b & binMaxCount }

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
func (s *Sketch) Add(x float64) { s.AddFrom(x, nil) }

// AddFrom is Add taking any storage it needs from sp, and handing what it
// gives up to sp: the way a sketch whose owner keeps a SketchSpares stack
// grows. A nil sp allocates, as Add does.
func (s *Sketch) AddFrom(x float64, sp *SketchSpares) {
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
	if !s.dense {
		// Most samples land in a bucket that already has a bin, or add one
		// past the last: count them here, and leave an insertion or a
		// promotion to addSparse.
		bins, key := s.buckets, packBin(idx, 0)
		i := 0
		for i < len(bins) && bins[i] < key {
			i++
		}
		switch {
		case i < len(bins) && bins[i]-key < binMaxCount: // bucket idx, with room
			bins[i]++
		case i == len(bins) && i < min(cap(bins), sketchMinCap):
			s.buckets = append(bins, key|1)
		default:
			s.addSparse(idx, 1, sp)
		}
		return
	}
	i := idx - int(s.base)
	if uint(i) >= uint(len(s.buckets)) { // outside the window
		s.ensure(idx, idx, sp)
		i = idx - int(s.base)
	}
	s.buckets[i]++
}

// Record adds one duration (the time.Duration face of Add).
func (s *Sketch) Record(d time.Duration) { s.Add(float64(d)) }

// addSparse adds c counts to bucket idx of a sparse sketch: in place when
// the bucket already has a bin, as a new bin while there is room for one,
// and otherwise — a ninth bucket, or a count the bin cannot hold — by
// promoting the sketch to its dense window first.
func (s *Sketch) addSparse(idx int, c uint64, sp *SketchSpares) {
	bins := s.buckets
	key := packBin(idx, 0)
	i := 0
	for i < len(bins) && bins[i] < key {
		i++
	}
	if i < len(bins) && binIndex(bins[i]) == idx {
		if n := binCount(bins[i]) + c; n >= c && n <= binMaxCount {
			bins[i] = key | n
			return
		}
	} else if len(bins) < sketchMinCap && c <= binMaxCount {
		if len(bins) == cap(bins) {
			grown := sp.get(len(bins) + 1)
			copy(grown, bins)
			sp.put(bins)
			bins = grown
		} else {
			bins = bins[:len(bins)+1]
		}
		copy(bins[i+1:], bins[i:])
		bins[i] = key | c
		s.buckets = bins
		return
	}
	s.promote(idx, idx, sp)
	s.buckets[idx-int(s.base)] += c
}

// promote turns a sparse sketch into a dense one whose window covers its
// bins and the bucket indices [lo, hi]: in place when the storage has room,
// otherwise in a window from sp, the bins' storage going back to sp.
func (s *Sketch) promote(lo, hi int, sp *SketchSpares) {
	var saved [sketchMinCap]uint64
	bins := saved[:copy(saved[:], s.buckets)]
	if len(bins) > 0 {
		lo, hi = min(lo, binIndex(bins[0])), max(hi, binIndex(bins[len(bins)-1]))
	}
	clear(s.buckets)
	win := sketchWindow(s.buckets, hi-lo+1, sp)
	if hi-lo+1 > cap(s.buckets) {
		sp.put(s.buckets)
	}
	for _, b := range bins {
		win[binIndex(b)-lo] = binCount(b)
	}
	s.buckets, s.base, s.dense = win, int32(lo), true
}

// ensure grows a dense sketch's counter window to cover bucket indices
// [lo, hi]. The window's ends always hold non-zero counters (counters only
// grow, and a window only extends to a bucket that is immediately
// incremented), so the representation — len, base, counters — is a pure
// function of the observed multiset: what makes DeepEqual comparisons and
// bit-exact merges possible.
//
// Capacity is not representation. The window lives at the front of a
// backing array whose capacity is rounded up (sketchCap), so most widenings
// reslice instead of allocating: a high-side widening exposes more of the
// array, a low-side one first shifts the counters up within it. Storage
// past len is kept zero (see ResetTo), so an exposed counter needs no
// clearing. A widening past the capacity takes its window from sp and hands
// the old one back.
func (s *Sketch) ensure(lo, hi int, sp *SketchSpares) {
	n := len(s.buckets)
	b := int(s.base)
	end := b + n - 1
	if lo >= b && hi <= end {
		return
	}
	nb, ne := min(lo, b), max(hi, end)
	shift := b - nb
	grown := sketchWindow(s.buckets, ne-nb+1, sp)
	copy(grown[shift:], s.buckets[:n])
	if ne-nb+1 > cap(s.buckets) {
		sp.put(s.buckets)
	} else if shift > 0 {
		clear(grown[:min(shift, n)]) // vacated by the in-place shift
	}
	s.base = int32(nb)
	s.buckets = grown
}

// sketchMinCap is the smallest backing array a sketch gets, one cache line
// of words, and the most bins the sparse form holds: a young flow's first
// buckets, and most flows' only ones, cost no growth.
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
// a zeroed array of rounded-up capacity from sp. The caller copies the old
// counters across.
func sketchWindow(buf []uint64, n int, sp *SketchSpares) []uint64 {
	if n <= cap(buf) {
		return buf[:n]
	}
	return sp.get(n)
}

// SketchSpares is a stack of zeroed sketch storage given up by the sketches
// of one owner, for the next of them that grows: a sketch reset with
// ResetTo keeps only a sparse form's cache line and hands a dense window
// here, and a promotion or widening takes its window from here before it
// allocates. Arrays are kept by capacity class (the powers of two from
// sketchMinCap to SketchMaxBuckets) and taken from their exact class, so a
// narrow window never pins a wide array; an array is only ever allocated
// when its class is empty, so the stack never holds more of a class than
// its owner's sketches once held at the same time. The zero value is an
// empty stack; a nil *SketchSpares keeps nothing and allocates everything.
// It is not safe for concurrent use.
type SketchSpares struct {
	free  [sketchClasses][][]uint64
	words int
}

// sketchClasses is the number of capacity classes: 8, 16, ..., 2048.
const sketchClasses = 9

// sketchClass returns the class of a power-of-two capacity in
// [sketchMinCap, SketchMaxBuckets], or -1 for any other capacity.
func sketchClass(c int) int {
	if c < sketchMinCap || c > SketchMaxBuckets || c&(c-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(c)) - bits.TrailingZeros(sketchMinCap)
}

// get returns n zeroed counters with capacity sketchCap(n).
func (sp *SketchSpares) get(n int) []uint64 {
	c := sketchCap(n)
	if sp != nil {
		if st := &sp.free[sketchClass(c)]; len(*st) > 0 {
			buf := (*st)[len(*st)-1]
			*st = (*st)[:len(*st)-1]
			sp.words -= c
			return buf[:n]
		}
	}
	return make([]uint64, n, c)
}

// put clears buf and keeps it for a later get. An owner hands its spares
// only storage its own sketches grew, never a window carved from someone
// else's slab; a capacity no class holds is left to the collector.
func (sp *SketchSpares) put(buf []uint64) {
	if sp == nil {
		return
	}
	k := sketchClass(cap(buf))
	if k < 0 {
		return
	}
	clear(buf) // storage past len is zero by invariant
	sp.free[k] = append(sp.free[k], buf[:0])
	sp.words += cap(buf)
}

// Bytes is the storage sp holds for reuse, in bytes.
func (sp *SketchSpares) Bytes() int { return sp.words * 8 }

// ResetTo empties the sketch for reuse, as if freshly declared, keeping at
// most one sparse form's worth of storage (cleared): a wider array goes to
// sp and the sketch takes a cache line from it, so a recycled sketch holds
// what its next tenant is most likely to need rather than what its widest
// tenant needed, and refills without allocating.
//
// A nil sp keeps all the storage instead: a sketch reset that way and handed
// from tenant to tenant settles at the widest window any of them reached,
// rounded up — never past SketchMaxBuckets counters.
//
// A reset sketch that has since observed at least one value >= 1 is
// reflect.DeepEqual to a fresh sketch fed the same values; before that its
// empty storage is non-nil where a fresh sketch's is nil — State and Clone
// render both as nil.
func (s *Sketch) ResetTo(sp *SketchSpares) {
	if cap(s.buckets) > sketchMinCap {
		s.resetWide(sp)
		return
	}
	clear(s.buckets)
	*s = Sketch{buckets: s.buckets[:0]}
}

// resetWide is ResetTo of a sketch whose storage is wider than a cache
// line, kept apart so that the common reset stays small enough to inline.
func (s *Sketch) resetWide(sp *SketchSpares) {
	buf := s.buckets
	if sp != nil {
		sp.put(buf)
		buf = sp.get(0)
	}
	clear(buf)
	*s = Sketch{buckets: buf[:0]}
}

// Clone returns an independent copy of the sketch in canonical form: one
// exact-length copy of its storage, nil for an empty one. The clone shares
// no storage with s, whatever s's capacity or history.
func (s *Sketch) Clone() Sketch {
	cp, _ := s.CloneIn(nil)
	return cp
}

// CloneIn is Clone with the storage carved off the front of slab instead of
// allocated, so a table of clones costs one allocation sized by the sum of
// Buckets() rather than one per sketch. It returns the clone and the rest of
// slab. The carved storage's capacity is its length: growing the clone later
// reallocates and never writes into what follows it in the slab. A slab too
// short for the storage (nil included) is left alone and the storage
// allocated.
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

// Merge folds o into s. Integer addition of counters bucket by bucket plus
// min/max comparisons: exactly associative and commutative, so any merge
// order over any partition of a stream yields the identical sketch. o is not
// modified.
func (s *Sketch) Merge(o *Sketch) { s.MergeFrom(o, nil) }

// MergeFrom is Merge taking any storage it needs from sp (see AddFrom).
func (s *Sketch) MergeFrom(o *Sketch, sp *SketchSpares) {
	if o.count == 0 {
		return
	}
	if o == s { // a fold into itself reads what it writes: fold a copy
		cp := o.Clone()
		o = &cp
	}
	if s.count == 0 {
		buf := s.buckets
		clear(buf) // empty unless a wire peer sent buckets with no count
		*s = *o
		s.buckets = buf[:0]
		if n := len(o.buckets); n > 0 {
			if n > cap(buf) {
				sp.put(buf)
			}
			s.buckets = sketchWindow(s.buckets, n, sp)
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
	if !o.dense {
		bins := o.buckets
		for ; len(bins) > 0 && !s.dense; bins = bins[1:] {
			s.addSparse(binIndex(bins[0]), binCount(bins[0]), sp)
		}
		if len(bins) > 0 { // s is dense, and one widening covers the sorted rest
			s.ensure(binIndex(bins[0]), binIndex(bins[len(bins)-1]), sp)
			for _, b := range bins {
				s.buckets[binIndex(b)-int(s.base)] += binCount(b)
			}
		}
		return
	}
	lo, hi := int(o.base), int(o.base)+len(o.buckets)-1
	if s.dense {
		s.ensure(lo, hi, sp)
	} else {
		s.promote(lo, hi, sp)
	}
	off := lo - int(s.base)
	for i, c := range o.buckets {
		s.buckets[off+i] += c
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Zero returns the number of observations in the zero bucket, [0, 1) ns.
func (s *Sketch) Zero() uint64 { return s.zero }

// Min returns the smallest observation (exact, not bucketed).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest observation (exact, not bucketed).
func (s *Sketch) Max() float64 { return s.max }

// Buckets returns the number of words the sketch's buckets occupy: its
// non-empty buckets while sparse, its window's counters once dense (<=
// SketchMaxBuckets either way). It is what CloneIn carves.
func (s *Sketch) Buckets() int { return len(s.buckets) }

// Window returns a dense sketch's counter window, from its lowest non-empty
// bucket to its highest, and the first counter's bucket index — read in
// place, so the caller must neither modify nor retain it. A sparse sketch
// returns a nil window: Bins yields its buckets.
func (s *Sketch) Window() (base int, counters []uint64) {
	if !s.dense {
		return 0, nil
	}
	return int(s.base), s.buckets
}

// Bytes is the storage the sketch holds, in bytes: its capacity.
func (s *Sketch) Bytes() int { return cap(s.buckets) * 8 }

// Bins is an iterator (an iter.Seq2) over the sketch's non-empty buckets in
// ascending index order, yielding each bucket's index and count — the
// buckets an encoder writes, whichever form holds them. The zero bucket is
// not among them (see Zero).
func (s *Sketch) Bins(yield func(idx int, count uint64) bool) {
	if s.dense {
		for i, c := range s.buckets {
			if c != 0 && !yield(int(s.base)+i, c) {
				return
			}
		}
		return
	}
	for _, b := range s.buckets {
		if !yield(binIndex(b), binCount(b)) {
			return
		}
	}
}

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
	if s.dense {
		for i, c := range s.buckets {
			seen += c
			if seen >= rank {
				return sketchValue(int(s.base) + i)
			}
		}
		return s.max
	}
	for _, b := range s.buckets {
		seen += binCount(b)
		if seen >= rank {
			return sketchValue(binIndex(b))
		}
	}
	return s.max
}

// QuantileDuration returns Quantile as a duration, rounded down.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// SketchState is the exported internal state of a Sketch: the counter
// window from the lowest to the highest non-empty bucket, whichever form
// holds it, plus the scalar fields. Like WelfordState it exists for the
// fleet raw-snapshot wire — State → JSON → SketchFromState is
// bit-identical.
type SketchState struct {
	Zero    uint64   `json:"zero,omitempty"`
	Count   uint64   `json:"count"`
	Base    int32    `json:"base,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
}

// State returns the sketch's exact internal state, its buckets as a fresh
// counter window.
func (s *Sketch) State() SketchState {
	st := SketchState{Zero: s.zero, Count: s.count, Min: s.min, Max: s.max}
	switch {
	case s.dense:
		st.Base, st.Buckets = s.base, append([]uint64(nil), s.buckets...)
	case len(s.buckets) > 0:
		lo := binIndex(s.buckets[0])
		st.Base, st.Buckets = int32(lo), make([]uint64, binIndex(s.buckets[len(s.buckets)-1])-lo+1)
		for _, b := range s.buckets {
			st.Buckets[binIndex(b)-lo] = binCount(b)
		}
	}
	return st
}

// SetState rebuilds the sketch from exported state, bit-identical to the
// sketch State was called on. A wire peer's window is never trusted to
// allocate unboundedly or index out of range: one based outside the
// structural bucket range is dropped, one running past its end truncated,
// and empty buckets at either end are trimmed, so the result is in the
// canonical form of the counts it keeps.
func (s *Sketch) SetState(st SketchState) {
	base, win := int(st.Base), st.Buckets
	if base < 0 || base >= SketchMaxBuckets {
		win = nil // nonsense window: drop it
	} else if len(win) > SketchMaxBuckets-base {
		win = win[:SketchMaxBuckets-base]
	}
	var bins []SketchBin
	for i, c := range win {
		if c != 0 {
			bins = append(bins, SketchBin{Index: base + i, Count: c})
		}
	}
	s.SetBinsIn(st, bins, nil)
}

// SketchBin is one non-empty bucket of a sketch: its index and its count.
type SketchBin struct {
	Index int
	Count uint64
}

// SetBinsIn is SetState for a state whose counters come as the non-empty
// buckets alone, in ascending index order, each index in [0,
// SketchMaxBuckets) and each count non-zero (st.Base and st.Buckets are
// ignored) — what a decoder of a sparse wire rendering has, with no window
// to build or scan — and with the sketch's storage carved off the front of
// slab (see CloneIn, whose carving rules it shares). It returns the rest of
// slab.
func (s *Sketch) SetBinsIn(st SketchState, bins []SketchBin, slab []uint64) []uint64 {
	*s = Sketch{zero: st.Zero, count: st.Count, min: st.Min, max: st.Max}
	if !SketchBinsDense(bins) {
		s.buckets, slab = carveWindow(slab, len(bins))
		for i, b := range bins {
			s.buckets[i] = packBin(b.Index, b.Count)
		}
		return slab
	}
	lo := bins[0].Index
	s.base, s.dense = int32(lo), true
	s.buckets, slab = carveWindow(slab, bins[len(bins)-1].Index-lo+1)
	clear(s.buckets)
	for _, b := range bins {
		s.buckets[b.Index-lo] = b.Count
	}
	return slab
}

// SketchBinsDense reports whether a sketch whose non-empty buckets are bins
// holds them in its dense form: more of them than the sparse form has room
// for, or a count its packed bin cannot hold. It is the form SetBinsIn
// builds, so a decoder can refuse a body that claims the other one before
// it sizes anything.
func SketchBinsDense(bins []SketchBin) bool {
	if len(bins) > sketchMinCap {
		return true
	}
	for _, b := range bins {
		if b.Count > binMaxCount {
			return true
		}
	}
	return false
}

// SketchFromState rebuilds a sketch from exported state (the generic
// FromState round-trip).
func SketchFromState(s SketchState) Sketch {
	return FromState[Sketch, SketchState, *Sketch](s)
}
