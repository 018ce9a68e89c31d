// Package stats provides the statistical primitives used throughout the RLIR
// reproduction: single-pass mean/variance accumulators, empirical CDFs,
// a bounded-memory latency quantile sketch, and the relative-error metric
// the paper reports.
package stats

import "math"

// Welford is a single-pass, numerically stable accumulator for mean and
// variance (Welford's online algorithm). The zero value is ready to use.
//
// Both the RLI receiver (estimated per-packet delays) and the ground-truth
// collector (actual per-packet delays) maintain one Welford per flow, so the
// accumulator is deliberately small: 24 bytes.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddN folds the same sample n times. It is used when a single interpolated
// delay stands for several identical observations.
func (w *Welford) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		w.Add(x)
	}
}

// Merge combines another accumulator into w (Chan et al. parallel variant).
// Merging is exact on the multiset semantics but reassociates float sums:
// bitwise determinism holds only when at most one operand is non-empty
// (see the Aggregate contract). o is not modified.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// WelfordState is the exported internal state of a Welford accumulator —
// exactly the three fields of the online algorithm. It exists so an
// accumulator can cross a process boundary (the fleet raw-snapshot wire)
// and be rebuilt bit-identically: the binary snapshot rendering ships the
// float bits verbatim, and Go's JSON float encoding is shortest round-trip,
// so State → JSON → WelfordFromState loses nothing for finite values either.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State returns the accumulator's exact internal state.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// SetState rebuilds the accumulator from exported state, bit-identical to
// the accumulator State was called on.
func (w *Welford) SetState(s WelfordState) {
	*w = Welford{n: s.N, mean: s.Mean, m2: s.M2}
}

// WelfordFromState rebuilds an accumulator bit-identical to the one State
// was called on (the generic FromState round-trip).
func WelfordFromState(s WelfordState) Welford {
	return FromState[Welford](s)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (dividing by n, not n-1), or 0 with
// fewer than one sample. The paper's per-flow standard deviation estimates
// are population statistics over the packets of a flow, so population
// variance is the matching definition.
func (w *Welford) Var() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVar returns the Bessel-corrected sample variance, or 0 with fewer
// than two samples.
func (w *Welford) SampleVar() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// RelErr returns |est-truth|/|truth|, the paper's accuracy metric
// ("relative error"). When truth is zero: 0 if est is also zero (a perfect
// estimate of nothing), +Inf otherwise.
func RelErr(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}
