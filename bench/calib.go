package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// The sandbox this benchmark is judged on is a small VM on a shared host
// whose neighbours slow memory-bound work by 10–70 % in an ordinary hour and
// 2–4× in a bad one, in bursts whose density drifts over seconds to minutes
// (all of it user time: no steal, no faults), so two runs of one build can
// differ by more than any bound the contract allows. The calibrator
// measures that state of the host while the run goes on: every few hundred
// milliseconds, between units of measured work, it times three small fixed
// kernels of the harness's own — none calls the product — and records how
// much slower than nominal they ran. Every end-to-end timing is
// then divided (a rate: multiplied) by the host's slowness around the
// instant it was taken, which turns "pkts/s on whatever the host was doing"
// into "pkts/s at nominal host speed". A product change moves the measured
// work and not the kernels, so it shows in full; a slow spell moves both and
// cancels.

const (
	// calibGap is the least time between two calibration points: it bounds
	// the calibrator's share of a run at about 6 % (a point takes 10–15 ms).
	calibGap = 200 * time.Millisecond
	// calibNear is how many calibration points, nearest in time, a
	// repetition's slowness is read from (their median).
	calibNear = 7
)

// kernel is one fixed piece of work and the time it takes on a quiet host
// (this sandbox at its fastest, when the constants were fixed). Only ratios
// to nominal are used, so nominal sets the scale of the corrected numbers
// and nothing else.
type kernel struct {
	name    string
	nominal time.Duration
	run     func(c *calibrator)
}

// The kernels stress what the product stresses, in kinds: memory latency
// (walking heap structures), hashing with allocation (flow tables, GC) and
// parsing/encoding with allocation (the query path). A slow spell barely
// touches plain arithmetic, so there is no such kernel: over hours of
// recorded spells the equal-weight geometric mean of these three tracked
// every stage of the pipeline best (README.md, "Host-speed correction").
var kernels = []kernel{
	{"chase", 5500 * time.Microsecond, (*calibrator).chase},
	{"map", 2500 * time.Microsecond, (*calibrator).hashmap},
	{"json", 2500 * time.Microsecond, (*calibrator).json},
}

// calibPoint is one reading of the host: when, and the geometric mean of
// the kernels' times over their nominal times (1.0 = nominal speed).
type calibPoint struct {
	at   time.Time
	slow float64
}

type calibrator struct {
	pts  []calibPoint
	busy time.Duration // time spent inside kernels
	sink uint64        // keeps the kernels' results alive

	ring []uint32 // one random cycle over 16 MB, for chase to follow
	doc  []byte   // the JSON document the json kernel decodes and re-encodes
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newCalibrator() *calibrator {
	c := &calibrator{ring: make([]uint32, 4<<20)}
	for i := range c.ring {
		c.ring[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(c.ring) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		x = xorshift(x)
		j := int(x % uint64(i))
		c.ring[i], c.ring[j] = c.ring[j], c.ring[i]
	}
	rows := make([]calibRow, 800)
	for i := range rows {
		rows[i] = calibRow{
			Src: fmt.Sprintf("10.0.%d.%d", i/256, i%256), Dst: "10.1.2.3", SrcPort: i, DstPort: 80,
			Mean: float64(i) * 1.25, Hist: []int64{int64(i), int64(i) + 1, int64(i) + 2, 0, 0, 0, 9},
		}
	}
	c.doc, _ = json.Marshal(rows) // plain structs: cannot fail
	return c
}

type calibRow struct {
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	SrcPort int     `json:"src_port"`
	DstPort int     `json:"dst_port"`
	Mean    float64 `json:"mean"`
	Hist    []int64 `json:"hist"`
}

func (c *calibrator) chase() {
	p := uint32(c.sink) % uint32(len(c.ring))
	for i := 0; i < 40_000; i++ {
		p = c.ring[p]
	}
	c.sink += uint64(p)
}

type calibEntry struct{ key, hits uint64 }

func (c *calibrator) hashmap() {
	m := make(map[uint64]*calibEntry)
	x := uint64(999)
	for i := 0; i < 50_000; i++ {
		x = xorshift(x)
		k := x % 20_000
		e := m[k]
		if e == nil {
			e = &calibEntry{key: k}
			m[k] = e
		}
		e.hits++
	}
	c.sink += uint64(len(m))
}

func (c *calibrator) json() {
	var rows []calibRow
	_ = json.Unmarshal(c.doc, &rows) // the harness's own document: cannot fail
	out, _ := json.Marshal(rows)
	c.sink += uint64(len(out))
}

// sample takes one calibration point now.
func (c *calibrator) sample() {
	t0 := time.Now()
	logSum := 0.0
	for _, k := range kernels {
		k0 := time.Now()
		k.run(c)
		logSum += math.Log(float64(time.Since(k0)) / float64(k.nominal))
	}
	d := time.Since(t0)
	c.busy += d
	c.pts = append(c.pts, calibPoint{at: t0.Add(d / 2), slow: math.Exp(logSum / float64(len(kernels)))})
}

// tick takes a calibration point unless the last one is younger than
// calibGap. The stages call it between units of work, never inside one.
func (c *calibrator) tick() {
	if n := len(c.pts); n == 0 || time.Since(c.pts[n-1].at) >= calibGap {
		c.sample()
	}
}

// slowness is the host's slowness around the interval [t0, t0+d]: the
// median of the calibNear points nearest to it in time.
func (c *calibrator) slowness(t0 time.Time, d time.Duration) float64 {
	if len(c.pts) == 0 {
		return 1
	}
	t1 := t0.Add(d)
	dist := func(p calibPoint) time.Duration {
		switch {
		case p.at.Before(t0):
			return t0.Sub(p.at)
		case p.at.After(t1):
			return p.at.Sub(t1)
		}
		return 0
	}
	// Points are in time order: widen a window from the first point not
	// before t0, always towards the nearer side.
	hi := sort.Search(len(c.pts), func(i int) bool { return !c.pts[i].at.Before(t0) })
	lo := hi
	for hi-lo < calibNear && (lo > 0 || hi < len(c.pts)) {
		if hi == len(c.pts) || (lo > 0 && dist(c.pts[lo-1]) <= dist(c.pts[hi])) {
			lo--
		} else {
			hi++
		}
	}
	near := make([]float64, 0, calibNear)
	for _, p := range c.pts[lo:hi] {
		near = append(near, p.slow)
	}
	return median(near)
}

// all returns every point's slowness, for the report.
func (c *calibrator) all() []float64 {
	out := make([]float64, len(c.pts))
	for i, p := range c.pts {
		out[i] = p.slow
	}
	return out
}

// series is one metric's repetitions: the value as measured and the
// interval it was measured over.
type series struct {
	v  []float64
	t0 []time.Time
	d  []time.Duration
}

func (s *series) add(t0 time.Time, d time.Duration, v float64) {
	s.v = append(s.v, v)
	s.t0 = append(s.t0, t0)
	s.d = append(s.d, d)
}

// atNominal returns the repetitions corrected to nominal host speed: a time
// (rate false) is divided by the slowness around its interval, a rate is
// multiplied by it.
func (s *series) atNominal(c *calibrator, rate bool) []float64 {
	out := make([]float64, len(s.v))
	for i, v := range s.v {
		slow := c.slowness(s.t0[i], s.d[i])
		if rate {
			out[i] = v * slow
		} else {
			out[i] = v / slow
		}
	}
	return out
}
