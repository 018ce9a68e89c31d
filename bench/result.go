package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints: whether every output
// verified, how many operations were attempted and failed, and the metrics
// (end-to-end with tracing off, per-layer with tracing on).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// benchmarkFile is BENCHMARK.json, the contract the driver reads. The
// harness reads it for the workload list and the bounds compare uses.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// cell is one (metric, workload) pair's values over a set's runs.
type cell struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
}

// runSet is what `bench all` writes: every run of one build on one host.
type runSet struct {
	Commit     string  `json:"commit,omitempty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	Network    string  `json:"network"`
	RunSeconds float64 `json:"run_seconds"`
	Seeds      []int64 `json:"seeds"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	EndToEnd   []cell  `json:"end_to_end"`
	PerLayer   []cell  `json:"per_layer"`
}

func (c *cell) summarize() {
	c.Median = median(c.Values)
	c.Q1, c.Q3 = quartiles(c.Values)
	c.Spread = spread(c.Values)
}

func loadRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printSet lists each cell's median with the spread it was read from.
func printSet(w io.Writer, title string, cells []cell) {
	fmt.Fprintf(w, "%s\n%-34s %-14s %14s %-12s %3s %14s %14s %8s\n", title, "metric", "workload", "median", "unit", "n", "min", "max", "iqr/med")
	for _, c := range cells {
		s := append([]float64(nil), c.Values...)
		sort.Float64s(s)
		fmt.Fprintf(w, "%-34s %-14s %14.6g %-12s %3d %14.6g %14.6g %7.1f%%\n", c.Metric, c.Workload, c.Median, c.Unit, len(s), s[0], s[len(s)-1], c.Spread*100)
	}
}

// Verdicts of compare.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one cell of set B against the same cell of set A under the
// metric's bound:
//
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: either set's spread is wider than the bound, so the pair
//     cannot show a change of that size — unless every run of B is better
//     than every run of A;
//   - improved: B's median is better by more than A's own spread;
//   - unchanged: otherwise.
func verdict(a, b cell, better string, bound float64) string {
	worse := worsening(a.Median, b.Median, better)
	if math.Max(a.Spread, b.Spread) > bound {
		if allBetter(a.Values, b.Values, better) {
			return verdictImproved
		}
		return verdictUnresolved
	}
	switch {
	case worse > bound:
		return verdictRegressed
	case -worse > a.Spread && -worse > 0:
		return verdictImproved
	}
	return verdictUnchanged
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareSets prints one row per (metric, workload) cell of the end-to-end
// metrics and returns how many cells regressed and how many are
// unresolved.
func compareSets(w io.Writer, bf *benchmarkFile, a, b *runSet) (regressed, unresolved int) {
	bounds := make(map[string]boundedMetric, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m
	}
	index := make(map[[2]string]cell, len(b.EndToEnd))
	for _, c := range b.EndToEnd {
		index[[2]string{c.Metric, c.Workload}] = c
	}
	fmt.Fprintf(w, "%-28s %-14s %14s %14s %-22s %6s %s\n", "metric", "workload", "A median", "B median", "B/A (base A)", "bound", "verdict")
	for _, ca := range a.EndToEnd {
		cb, ok := index[[2]string{ca.Metric, ca.Workload}]
		bm, known := bounds[ca.Metric]
		if !ok || !known {
			fmt.Fprintf(w, "%-28s %-14s missing from B or from BENCHMARK.json\n", ca.Metric, ca.Workload)
			unresolved++
			continue
		}
		v := verdict(ca, cb, bm.Better, bm.Bound)
		switch v {
		case verdictRegressed:
			regressed++
		case verdictUnresolved:
			unresolved++
		}
		ratio := fmt.Sprintf("%.3f of %.6g %s", cb.Median/ca.Median, ca.Median, ca.Unit)
		fmt.Fprintf(w, "%-28s %-14s %14.6g %14.6g %-22s %5.0f%% %s\n", ca.Metric, ca.Workload, ca.Median, cb.Median, ratio, bm.Bound*100, v)
	}
	return regressed, unresolved
}
