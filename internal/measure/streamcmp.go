package measure

import (
	"math"
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/stats"
)

// CompareFlowAggs scores a collector flow table against the ground truth it
// carries in-band: every ingested Sample ships the simulator's true delay
// next to the estimate, so a collector aggregate holds matched per-flow
// estimate and truth accumulators and a comparison row can be computed from
// a snapshot alone. This is the streaming counterpart of Compare — it is
// what a long-lived measurement service answers /comparison from, with no
// access to the simulation that produced the stream — and it is exact: the
// same samples folded through the same Welford accumulators yield
// bit-identical means whether they arrived in one batch or over a socket.
func CompareFlowAggs(name string, aggs []collector.FlowAgg) Comparison {
	c, _ := CompareFlowAggsIn(name, aggs, nil)
	return c
}

// ReportFlowAggs is a collector flow table as an estimator's report, one
// flow estimate per row in the table's order: what a harness whose receivers
// stream to a collector scores with Compare beside its baselines.
func ReportFlowAggs(name string, aggs []collector.FlowAgg, overhead Overhead) Report {
	flows := make([]FlowEstimate, len(aggs))
	for i := range aggs {
		flows[i] = FlowEstimate{Key: aggs[i].Key, Mean: time.Duration(aggs[i].Est.Mean()), N: aggs[i].Est.N()}
	}
	return Report{Estimator: name, Overhead: overhead}.WithFlows(flows)
}

// CompareFlowAggsIn is CompareFlowAggs with the per-flow errors collected and
// sorted in errs' storage, which it returns for the next call: scoring a
// table no larger than one scored before allocates nothing.
func CompareFlowAggsIn(name string, aggs []collector.FlowAgg, errs []float64) (Comparison, []float64) {
	c := Comparison{
		Estimator:    name,
		MedianRelErr: math.NaN(),
		P99RelErr:    math.NaN(),
		AggRelErr:    math.NaN(),
	}
	var estW, trueW float64
	errs = slices.Grow(errs[:0], len(aggs))
	for i := range aggs {
		a := &aggs[i]
		n := a.Est.N()
		if n == 0 {
			continue
		}
		c.AggSamples += n
		estW += a.Est.Mean() * float64(n)
		trueW += a.True.Mean() * float64(n)
		if trueMean := a.True.Mean(); trueMean > 0 {
			c.Flows++
			c.Samples += n
			errs = append(errs, stats.RelErr(a.Est.Mean(), trueMean))
		}
	}
	if c.AggSamples > 0 {
		c.AggMean = time.Duration(estW / float64(c.AggSamples))
		if trueAgg := trueW / float64(c.AggSamples); trueAgg > 0 {
			c.AggRelErr = stats.RelErr(estW/float64(c.AggSamples), trueAgg)
		}
	}
	if len(errs) > 0 {
		cdf := stats.CDFOver(errs)
		c.MedianRelErr = cdf.Median()
		c.P99RelErr = cdf.Quantile(0.99)
	}
	return c, errs
}
