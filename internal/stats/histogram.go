package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"
)

// Histogram is a log2-bucketed latency histogram: bucket i holds durations
// d with 2^i ns <= d < 2^(i+1) ns (bucket 0 additionally holds 0 and 1 ns).
// It gives a constant-memory view of a latency distribution with <= 100%
// relative quantile error per bucket, which is plenty for the operator-facing
// dashboards this library targets; exact per-flow statistics use Welford.
//
// The zero value is ready to use.
type Histogram struct {
	buckets [HistogramBuckets]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// HistogramBuckets is the histogram's fixed bucket count: one per bit of a
// non-negative int64 nanosecond duration, rounded up to 64.
const HistogramBuckets = 64

func bucketOf(d time.Duration) int {
	if d <= 1 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Add folds one observation in float64 nanoseconds (the Aggregate contract
// face of Record). Negative and NaN values clamp to zero like Record.
func (h *Histogram) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	h.Record(time.Duration(x))
}

// Record adds one duration. Negative durations are clamped to zero; they can
// only arise from clock desynchronization, which the caller tracks separately.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || int64(d) < h.min {
		h.min = int64(d)
	}
	if h.count == 0 || int64(d) > h.max {
		h.max = int64(d)
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += int64(d)
}

// HistogramState is the exported internal state of a Histogram: the prefix
// of the log2 buckets up to the last non-empty one, plus the exact
// count/sum/min/max scalars — the Aggregate contract's State, so
// State → JSON → HistogramFromState is bit-identical. (No wire carries it
// since flow aggregates stopped holding a Histogram; see Sketch.Log2Histogram.)
type HistogramState struct {
	Buckets []uint64 `json:"buckets,omitempty"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
}

// State returns the histogram's exact internal state; Buckets is trimmed at
// the last non-zero bucket.
func (h *Histogram) State() HistogramState {
	n := len(h.buckets)
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	s := HistogramState{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if n > 0 {
		s.Buckets = append([]uint64(nil), h.buckets[:n]...)
	}
	return s
}

// SetState rebuilds the histogram from exported state, bit-identical to the
// histogram State was called on. State slices longer than HistogramBuckets
// are truncated.
func (h *Histogram) SetState(s HistogramState) {
	*h = Histogram{}
	n := len(s.Buckets)
	if n > len(h.buckets) {
		n = len(h.buckets)
	}
	copy(h.buckets[:n], s.Buckets[:n])
	h.count, h.sum, h.min, h.max = s.Count, s.Sum, s.Min, s.Max
}

// HistogramFromState rebuilds a histogram bit-identical to the one State was
// called on (the generic FromState round-trip).
func HistogramFromState(s HistogramState) Histogram {
	return FromState[Histogram](s)
}

// Count returns the number of recorded durations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of recorded durations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Min returns the smallest recorded duration.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns an upper bound for the q-quantile: the top edge of the
// bucket containing the q-th ranked sample, clamped to the observed maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			edge := int64(1) << uint(i+1)
			if edge > h.max {
				edge = h.max
			}
			return time.Duration(edge)
		}
	}
	return time.Duration(h.max)
}

// Merge adds the contents of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 {
		*h = *o
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// String renders the non-empty buckets with proportional bars.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histogram n=%d mean=%v min=%v max=%v\n", h.count, h.Mean(), h.Min(), h.Max())
	if h.count == 0 {
		return b.String()
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := time.Duration(int64(1) << uint(i))
		if i == 0 {
			lo = 0
		}
		frac := float64(c) / float64(h.count)
		fmt.Fprintf(&b, "  [%12v, %12v) %8d %5.1f%% %s\n",
			lo, time.Duration(int64(1)<<uint(i+1)), c, frac*100, strings.Repeat("#", int(frac*50+0.5)))
	}
	return b.String()
}
