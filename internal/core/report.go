package core

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/stats"
)

// FlowResult is one flow's estimated-vs-true latency statistics, the unit
// the paper's accuracy CDFs are built from.
type FlowResult struct {
	Key packet.FlowKey
	// N is the number of per-packet estimates for this flow.
	N int64
	// EstMean / TrueMean are the estimated and ground-truth mean delays.
	EstMean, TrueMean time.Duration
	// EstStd / TrueStd are the estimated and ground-truth per-flow standard
	// deviations.
	EstStd, TrueStd time.Duration
	// RelErrMean is |EstMean-TrueMean|/TrueMean (Figure 4(a)'s metric).
	RelErrMean float64
	// RelErrStd is the same for standard deviations (Figure 4(b)).
	RelErrStd float64
}

// FlowResultOf is one flow's result from its folded estimated and true
// per-packet delays, in nanoseconds.
func FlowResultOf(key packet.FlowKey, est, truth *stats.Welford) FlowResult {
	return FlowResult{
		Key:        key,
		N:          est.N(),
		EstMean:    time.Duration(est.Mean()),
		TrueMean:   time.Duration(truth.Mean()),
		EstStd:     time.Duration(est.Std()),
		TrueStd:    time.Duration(truth.Std()),
		RelErrMean: stats.RelErr(est.Mean(), truth.Mean()),
		RelErrStd:  stats.RelErr(est.Std(), truth.Std()),
	}
}

// MeanErrCDF builds the CDF of per-flow mean relative errors.
func MeanErrCDF(results []FlowResult) *stats.CDF {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = r.RelErrMean
	}
	return stats.NewCDF(xs)
}

// StdErrCDF builds the CDF of per-flow standard deviation relative errors,
// over flows with at least two packets (a single sample has no deviation).
func StdErrCDF(results []FlowResult) *stats.CDF {
	xs := make([]float64, 0, len(results))
	for _, r := range results {
		if r.N >= 2 && r.TrueStd > 0 {
			xs = append(xs, r.RelErrStd)
		}
	}
	return stats.NewCDF(xs)
}

// Summary aggregates a result set the way the paper quotes scalars.
type Summary struct {
	Flows          int
	Estimates      int64
	MedianRelErr   float64
	P90RelErr      float64
	FracUnder10Pct float64
	TrueMeanDelay  time.Duration // average of per-flow true means, packet-weighted
}

// Summarize computes a Summary over results.
func Summarize(results []FlowResult) Summary {
	run := RunOf(results)
	return run.Summary()
}

// Run is a result set's Summary kept open for unions: the flows' mean
// relative errors, sorted once, and the sums the summary's counts and
// weighted delay read. A summary over a union of result sets merges its
// parts' runs instead of sorting their errors again. Quantiles are
// nearest-rank, so the merged run's are exactly those of the whole, and the
// weighted delay is a sum of integers, so parts add up in any order.
type Run struct {
	errs      *stats.CDF
	flows     int
	estimates int64
	trueW     int64 // Σ TrueMean·N
}

// RunOf folds results into a Run, sorting their mean relative errors.
func RunOf(results []FlowResult) Run {
	return RunFunc(len(results), func(i int) *FlowResult { return &results[i] })
}

// RunFunc is RunOf over the n results result returns, for i in [0, n):
// the results need not be gathered in one slice first.
func RunFunc(n int, result func(i int) *FlowResult) Run {
	r := Run{flows: n}
	errs := make([]float64, n)
	for i := range errs {
		fr := result(i)
		errs[i] = fr.RelErrMean
		r.estimates += fr.N
		r.trueW += int64(fr.TrueMean) * fr.N
	}
	cdf := stats.CDFOver(errs)
	r.errs = &cdf
	return r
}

// Merge returns the run of both result sets together; neither is modified.
func (r Run) Merge(o Run) Run {
	switch {
	case o.flows == 0:
		return r
	case r.flows == 0:
		return o
	}
	return Run{errs: r.errs.Merge(o.errs), flows: r.flows + o.flows,
		estimates: r.estimates + o.estimates, trueW: r.trueW + o.trueW}
}

// Summary is the run's Summary: Summarize over its result sets' union.
func (r Run) Summary() Summary {
	if r.flows == 0 {
		return Summary{}
	}
	return Summary{
		Flows:          r.flows,
		Estimates:      r.estimates,
		MedianRelErr:   r.errs.Median(),
		P90RelErr:      r.errs.Quantile(0.9),
		FracUnder10Pct: r.errs.FracBelow(0.10),
		TrueMeanDelay:  time.Duration(float64(r.trueW) / float64(r.estimates)),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("flows=%d estimates=%d medianRelErr=%.3f p90=%.3f under10%%=%.1f%% trueMean=%v",
		s.Flows, s.Estimates, s.MedianRelErr, s.P90RelErr, s.FracUnder10Pct*100, s.TrueMeanDelay)
}
