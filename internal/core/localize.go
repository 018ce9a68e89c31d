package core

import (
	"fmt"
	"sort"
	"time"
)

// SegmentReport is one independently measured path segment ("T1->C1") as
// the localizer sees it: how many packets were estimated and their mean
// latency. RLIR's value proposition is that a path's segments are measured
// independently, so a latency anomaly is localized to the segment whose mean
// shifted (§1: partial deployment costs only "an increase in the
// localization granularity").
type SegmentReport struct {
	Name    string
	Packets uint64
	Mean    time.Duration
}

// Anomaly is a flagged segment.
type Anomaly struct {
	Segment  string
	Mean     time.Duration
	Baseline time.Duration
	Ratio    float64
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s: mean %v vs baseline %v (%.1fx)", a.Segment, a.Mean, a.Baseline, a.Ratio)
}

// Localizer flags segments whose mean latency exceeds Threshold times their
// recorded baseline. Baselines come from a calibration run (or operator
// knowledge); segments without a baseline are compared against the median
// of all observed segment means.
type Localizer struct {
	// Threshold is the ratio above which a segment is anomalous (e.g. 3.0).
	Threshold float64
	// Baseline maps segment name to its healthy mean latency.
	Baseline map[string]time.Duration
}

// NewLocalizer builds a localizer with the given threshold.
func NewLocalizer(threshold float64) *Localizer {
	if threshold <= 1 {
		panic(fmt.Sprintf("core: localizer threshold %v must exceed 1", threshold))
	}
	return &Localizer{Threshold: threshold, Baseline: make(map[string]time.Duration)}
}

// SetBaseline records a segment's healthy mean.
func (l *Localizer) SetBaseline(segment string, mean time.Duration) {
	l.Baseline[segment] = mean
}

// CalibrateFrom records every segment's current mean as its baseline.
func (l *Localizer) CalibrateFrom(reports []SegmentReport) {
	for _, rep := range reports {
		l.SetBaseline(rep.Name, rep.Mean)
	}
}

// Examine reports anomalous segments, most inflated first.
func (l *Localizer) Examine(reports []SegmentReport) []Anomaly {
	fallback := medianMean(reports)
	var out []Anomaly
	for _, rep := range reports {
		base, ok := l.Baseline[rep.Name]
		if !ok {
			base = fallback
		}
		if base <= 0 {
			continue
		}
		ratio := float64(rep.Mean) / float64(base)
		if ratio >= l.Threshold {
			out = append(out, Anomaly{Segment: rep.Name, Mean: rep.Mean, Baseline: base, Ratio: ratio})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

func medianMean(reports []SegmentReport) time.Duration {
	if len(reports) == 0 {
		return 0
	}
	ms := make([]time.Duration, len(reports))
	for i, r := range reports {
		ms[i] = r.Mean
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms[len(ms)/2]
}
