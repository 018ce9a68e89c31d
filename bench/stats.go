package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics. vals need not be sorted; an empty input yields NaN.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run band a bound is judged against.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// tails are the percentiles a latency set may report, lowest first, each
// with the share of samples beyond it in parts per thousand (whole numbers,
// so that 10 000 samples leave exactly ten beyond p99.9).
var tails = []struct {
	percentile float64
	beyond     int
}{{50, 500}, {90, 100}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest percentile of tails that still has
// at least ten of n samples beyond it. A tail read from fewer samples is one
// or two outliers, not a percentile.
func highestPercentile(n int) float64 {
	best := tails[0].percentile
	for _, t := range tails {
		if n*t.beyond >= 10*1000 {
			best = t.percentile
		}
	}
	return best
}

// pacer schedules an open loop: operation k is due at start + k*interval
// whatever happened to the operations before it, so a stall delays nothing
// on the schedule and shows up as lateness instead. now and sleep are
// injectable for the unit test.
type pacer struct {
	start    time.Time
	interval time.Duration
	k        int64
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, interval: interval, now: time.Now, sleep: time.Sleep}
}

// next waits for the next operation's due instant and returns it with how
// late the caller is released (zero when on time). A generator that has
// fallen behind is released at once.
func (p *pacer) next() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.k) * p.interval)
	p.k++
	if wait := due.Sub(p.now()); wait > 0 {
		p.sleep(wait)
	}
	if late = p.now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}
