package stats

import "fmt"

// MetricCI is one metric's across-seed distribution: mean ± 95% CI
// (Student-t) over N independent runs.
type MetricCI struct {
	Mean, CI95 float64
	Min, Max   float64
	N          int
}

// MetricOf folds independent per-seed samples into a mean ± 95% CI metric —
// the one across-seed statistic every sweep harness reports.
func MetricOf(samples []float64) MetricCI {
	var w Welford
	m := MetricCI{}
	for _, x := range samples {
		if w.N() == 0 || x < m.Min {
			m.Min = x
		}
		if w.N() == 0 || x > m.Max {
			m.Max = x
		}
		w.Add(x)
	}
	m.Mean = w.Mean()
	m.CI95 = w.CI95()
	m.N = int(w.N())
	return m
}

func (m MetricCI) String() string {
	if m.N == 0 {
		return "n/a"
	}
	if m.N == 1 {
		return fmt.Sprintf("%.4f", m.Mean)
	}
	return fmt.Sprintf("%.4f ±%.4f", m.Mean, m.CI95)
}
