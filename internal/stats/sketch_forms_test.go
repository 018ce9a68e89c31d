package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseSketch is the reference the sparse form is held to: the sketch as it
// was before it had one, a full array of every structural bucket's counter
// plus the scalar fields, with nothing to promote, shift or recycle.
type denseSketch struct {
	zero, count uint64
	min, max    float64
	counts      [SketchMaxBuckets]uint64
}

func (r *denseSketch) add(x float64) {
	if x < 1 || math.IsNaN(x) {
		x = 0
	}
	if r.count == 0 || x < r.min {
		r.min = x
	}
	if r.count == 0 || x > r.max {
		r.max = x
	}
	r.count++
	if x < 1 {
		r.zero++
		return
	}
	r.counts[sketchIndex(x)]++
}

func (r *denseSketch) merge(o *denseSketch) {
	if o.count == 0 {
		return
	}
	if r.count == 0 || o.min < r.min {
		r.min = o.min
	}
	if r.count == 0 || o.max > r.max {
		r.max = o.max
	}
	r.zero += o.zero
	r.count += o.count
	for i, c := range o.counts {
		r.counts[i] += c
	}
}

func (r *denseSketch) state() SketchState {
	st := SketchState{Zero: r.zero, Count: r.count, Min: r.min, Max: r.max}
	lo, hi := -1, -1
	for i, c := range r.counts {
		if c != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo >= 0 {
		st.Base, st.Buckets = int32(lo), append([]uint64(nil), r.counts[lo:hi+1]...)
	}
	return st
}

func (r *denseSketch) quantile(q float64) float64 {
	if r.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(r.count)))
	if rank == 0 {
		rank = 1
	}
	if rank <= r.zero {
		return 0
	}
	seen := r.zero
	for i, c := range r.counts {
		if seen += c; seen >= rank {
			return sketchValue(i)
		}
	}
	return r.max
}

// bigCount bounds the counters a SetState op injects, so no sum of them
// can wrap a uint64 within one op sequence: the reference adds modulo 2^64
// like the dense window, but a wrapped counter is not a multiset any form
// is a function of.
const bigCount = 1 << 54

// runSketchOps drives three sketches — one growing from a shared
// SketchSpares stack, two allocating — and their dense references through
// the op sequence ops encodes, checking after every op that each sketch
// agrees with its reference: State, Quantile at 0, 0.5, 0.99 and 1, Count,
// Min and Max. It also checks what the form must be: a Clone is DeepEqual
// to the sketch SetState rebuilds from the reference's state, so the form
// is a function of the counts alone; storage past the window is zero; and
// every array on the spare stack is zero.
func runSketchOps(t *testing.T, ops []byte) {
	var sp SketchSpares
	var sk [3]Sketch
	var ref [3]denseSketch
	spares := func(i int) *SketchSpares {
		if i == 0 {
			return &sp
		}
		return nil
	}
	for len(ops) >= 3 {
		op, i, arg := ops[0]%8, int(ops[1]%3), ops[2]
		j := int(arg % 3)
		ops = ops[3:]
		switch op {
		case 0, 1: // Add around a narrow range of buckets, so sketches cross 8 bins both ways
			x := sketchValue(600 + int(arg%24))
			switch arg / 24 {
			case 8:
				x = 0.5 // the zero bucket
			case 9:
				x = 1e300 // the top bucket
			}
			sk[i].AddFrom(x, spares(i))
			ref[i].add(x)
		case 2: // Merge, possibly a sketch into itself
			if ref[i].count > math.MaxUint64/4 || ref[j].count > math.MaxUint64/4 {
				continue
			}
			if i == j {
				cp := ref[j]
				ref[i].merge(&cp)
			} else {
				ref[i].merge(&ref[j])
			}
			sk[i].MergeFrom(&sk[j], spares(i))
		case 3:
			sk[i].ResetTo(nil)
			ref[i] = denseSketch{}
		case 4:
			sk[i].ResetTo(spares(i))
			ref[i] = denseSketch{}
		case 5: // SetState from another sketch's state, sometimes with counts a bin cannot hold
			st := sk[j].State()
			if arg&0x80 != 0 && len(st.Buckets) > 0 {
				st.Buckets[len(st.Buckets)-1] = bigCount + uint64(arg)
				st.Count += bigCount
			}
			sk[i].SetState(st)
			ref[i] = denseSketch{zero: st.Zero, count: st.Count, min: st.Min, max: st.Max}
			for k, c := range st.Buckets {
				ref[i].counts[int(st.Base)+k] = c
			}
		case 6:
			if i != j {
				sk[i] = sk[j].Clone()
				ref[i] = ref[j]
			}
		case 7: // a round trip through the bins and a slab, as the snapshot decoder carves them
			slab := make([]uint64, sk[i].Buckets())
			var got Sketch
			if rest := got.SetBinsIn(sk[i].State(), binsOf(&sk[i]), slab); len(rest) != 0 {
				t.Fatalf("SetBinsIn left %d of %d slab words", len(rest), len(slab))
			}
			if !reflect.DeepEqual(got, sk[i].Clone()) {
				t.Fatalf("SetBinsIn(Bins) = %+v, want %+v", got, sk[i].Clone())
			}
		}
		for k := range sk {
			checkSketchForm(t, &sk[k], &ref[k])
		}
		for c, st := range sp.free {
			for _, buf := range st {
				if cap(buf) != sketchMinCap<<c {
					t.Fatalf("spare of capacity %d on the %d-word stack", cap(buf), sketchMinCap<<c)
				}
				for _, w := range buf[:cap(buf)] {
					if w != 0 {
						t.Fatal("a spare array holds a stale word")
					}
				}
			}
		}
	}
}

// binsOf collects a sketch's non-empty buckets, as a decoder reads them.
func binsOf(s *Sketch) []SketchBin {
	var bins []SketchBin
	for idx, c := range s.Bins {
		bins = append(bins, SketchBin{Index: idx, Count: c})
	}
	return bins
}

func checkSketchForm(t *testing.T, s *Sketch, r *denseSketch) {
	t.Helper()
	want := r.state()
	if got := s.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state %+v, dense reference %+v", got, want)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got, want := s.Quantile(q), r.quantile(q); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("quantile %v = %v, dense reference %v", q, got, want)
		}
	}
	if s.Count() != r.count || s.Min() != r.min || s.Max() != r.max {
		t.Fatalf("count/min/max %d/%v/%v, dense reference %d/%v/%v", s.Count(), s.Min(), s.Max(), r.count, r.min, r.max)
	}
	if got, canon := s.Clone(), SketchFromState(want); !reflect.DeepEqual(got, canon) {
		t.Fatalf("form %+v is not the canonical %+v of its counts", got, canon)
	}
	checkSketchStorage(t, "op sequence", s)
}

// TestSketchFormsMatchDenseReference is the property behind the sparse
// form: random Add, Merge, ResetTo (with spares and without), SetState and
// Clone sequences across the 8-bucket boundary leave every sketch
// indistinguishable from a dense-only reference, and in the one form its
// counts decide.
func TestSketchFormsMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(200)))
		rng.Read(ops)
		runSketchOps(t, ops)
	}
}

// FuzzSketchForms is TestSketchFormsMatchDenseReference on the fuzzer's op
// sequences.
func FuzzSketchForms(f *testing.F) {
	f.Add([]byte{})
	// Nine distinct buckets into one sketch: the promotion, then a reset.
	nine := []byte{}
	for b := byte(0); b < 9; b++ {
		nine = append(nine, 0, 0, b)
	}
	f.Add(append(nine, 4, 0, 0, 0, 0, 1))
	// Sparse into dense and dense into sparse, both directions.
	f.Add(append(append([]byte{}, nine...), 0, 1, 3, 2, 1, 0, 2, 0, 1, 6, 2, 0))
	// A bin that overflows its count: SetState with a huge count, then Adds.
	f.Add([]byte{0, 1, 5, 5, 0, 0x81, 0, 0, 5, 2, 1, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runSketchOps(t, ops)
	})
}

// TestZeroAllocSketchSparesChurn is the spare stack's garbage gate: sketches
// recycled with ResetTo and regrown past the sparse form — promoting,
// widening, merging into an emptied sketch — take every window from the
// stack once it holds one of each class they need, and hand every window
// back, so the stack ends the size it started.
func TestZeroAllocSketchSparesChurn(t *testing.T) {
	var sp SketchSpares
	var sk [4]Sketch
	var wide Sketch
	for i := 0; i < 40; i++ {
		wide.Add(sketchValue(500 + 3*i))
	}
	fill := func() {
		for i := range sk {
			for k := 0; k < 12+10*i; k++ {
				sk[i].AddFrom(sketchValue(600+7*k), &sp)
			}
		}
		sk[3].ResetTo(&sp)
		sk[3].MergeFrom(&wide, &sp)
		for i := range sk {
			sk[i].ResetTo(&sp)
		}
	}
	fill()
	held := sp.Bytes()
	allocs := testing.AllocsPerRun(100, fill)
	if allocs != 0 {
		t.Fatalf("refilling recycled sketches from the spare stack allocated %.1f times per run, want 0", allocs)
	}
	if sp.Bytes() != held {
		t.Fatalf("spare stack holds %d bytes after the churn, %d before", sp.Bytes(), held)
	}
	for i := range sk {
		if sk[i].Bytes() != sketchMinCap*8 {
			t.Fatalf("recycled sketch %d keeps %d bytes, want one cache line", i, sk[i].Bytes())
		}
	}
}
