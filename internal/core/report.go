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
	if len(results) == 0 {
		return Summary{}
	}
	cdf := MeanErrCDF(results)
	var estimates, wsum int64
	var trueWeighted float64
	for _, r := range results {
		estimates += r.N
		trueWeighted += float64(r.TrueMean) * float64(r.N)
		wsum += r.N
	}
	return Summary{
		Flows:          len(results),
		Estimates:      estimates,
		MedianRelErr:   cdf.Median(),
		P90RelErr:      cdf.Quantile(0.9),
		FracUnder10Pct: cdf.FracBelow(0.10),
		TrueMeanDelay:  time.Duration(trueWeighted / float64(wsum)),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("flows=%d estimates=%d medianRelErr=%.3f p90=%.3f under10%%=%.1f%% trueMean=%v",
		s.Flows, s.Estimates, s.MedianRelErr, s.P90RelErr, s.FracUnder10Pct*100, s.TrueMeanDelay)
}
