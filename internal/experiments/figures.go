package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// Series is one labelled CDF curve of a figure.
type Series struct {
	Label string
	CDF   *stats.CDF
	// Meta carries the run scalars the paper quotes alongside the curve.
	Meta map[string]float64
}

// Figure is a reproduced figure: a set of CDF curves plus notes.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Table summarizes the figure: each series' headline quantiles. A series
// whose CDF came out empty contributes NaN — "no value at this seed" — so
// the fold reports its effective n. The curves themselves are the series'
// CDFs (stats.CDF.Render draws one).
func (f Figure) Table() stats.Table {
	t := stats.Table{
		Title:     f.ID + ": " + f.Title,
		RowHeader: "series",
		Columns:   []string{"medianRelErr", "p90RelErr", "fracUnder10%"},
		Notes:     f.Notes,
	}
	for _, s := range f.Series {
		cells := []float64{math.NaN(), math.NaN(), math.NaN()}
		if s.CDF.N() > 0 {
			cells = []float64{s.CDF.Median(), s.CDF.Quantile(0.9), s.CDF.FracBelow(0.10)}
		}
		t.Rows = append(t.Rows, stats.TableRow{Label: s.Label, Cells: cells})
	}
	return t
}

// point is one Figure-3 run of the figures: base's magnitudes (line rate,
// queue, regular load, duration, seed) under the paper's injection scheme
// (static 1-and-100, adaptive 1-and-10..300, or none), the given cross
// model and target bottleneck utilization, measured by RLI alone.
func point(base scenario.Spec, scheme string, model scenario.CrossModel, util float64) scenario.Spec {
	s := base
	s.Deploy = scenario.DeploymentSpec{Scheme: scheme, StaticN: core.DefaultStatic().N, Estimators: []string{"rli"}}
	s.Workload.CrossModel, s.Workload.CrossUtil = model, util
	return s
}

// run executes a spec derived from the target's base tandem spec.
func run(s scenario.Spec) *scenario.Result { return must(scenario.Run(s)) }

// fig4Runs executes the four runs shared by Figures 4(a) and 4(b): adaptive
// and static schemes at two bottleneck utilizations under the random cross
// traffic model.
func fig4Runs(base scenario.Spec, utils [2]float64) []*scenario.Result {
	var out []*scenario.Result
	for _, u := range utils {
		out = append(out,
			run(point(base, scenario.SchemeAdaptive, scenario.CrossUniform, u)),
			run(point(base, scenario.SchemeStatic, scenario.CrossUniform, u)))
	}
	return out
}

func seriesFrom(r *scenario.Result, cdf *stats.CDF) Series {
	return Series{
		Label: r.Spec.Label(),
		CDF:   cdf,
		Meta: map[string]float64{
			"achievedUtil": r.HotLinkUtil,
			"flows":        float64(r.Overall.Flows),
			"medianRelErr": safeMedian(cdf),
			"trueMeanUs":   micros(r.Overall.TrueMeanDelay),
			"refsSeen":     float64(r.Receiver.RefsSeen),
		},
	}
}

// micros converts a duration to float64 microseconds, the unit the paper
// quotes latencies in.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func safeMedian(c *stats.CDF) float64 {
	if c.N() == 0 {
		return 0
	}
	return c.Median()
}

// Fig4a reproduces Figure 4(a): CDFs of the relative error of per-flow
// MEAN latency estimates — adaptive vs static injection at ~67% and ~93%
// bottleneck utilization under the random cross-traffic model.
func Fig4a(base scenario.Spec) Figure {
	runs := fig4Runs(base, [2]float64{0.93, 0.67})
	f := Figure{ID: "fig4a", Title: "Mean estimates, random cross traffic model"}
	for _, r := range runs {
		f.Series = append(f.Series, seriesFrom(r, core.MeanErrCDF(r.Results)))
	}
	f.Notes = append(f.Notes,
		"paper shape: higher utilization -> lower relative error; adaptive <= static",
		fmt.Sprintf("achieved utils: %s", achieved(runs)))
	return f
}

// Fig4b reproduces Figure 4(b): the same four runs, CDFs of the relative
// error of per-flow STANDARD DEVIATION estimates (flows with >= 2 packets).
func Fig4b(base scenario.Spec) Figure {
	runs := fig4Runs(base, [2]float64{0.93, 0.67})
	f := Figure{ID: "fig4b", Title: "Standard deviation estimates, random cross traffic model"}
	for _, r := range runs {
		f.Series = append(f.Series, seriesFrom(r, core.StdErrCDF(r.Results)))
	}
	f.Notes = append(f.Notes,
		"paper shape: adaptive@93% has ~90% of flows under 10% error vs ~30% at 67%",
		fmt.Sprintf("achieved utils: %s", achieved(runs)))
	return f
}

// Fig4c reproduces Figure 4(c): mean-estimate accuracy under the BURSTY
// cross-traffic model vs the random model, at ~34% and ~67% utilization
// (static injection is held fixed so the models are the only variable; the
// paper uses the same workload logic).
func Fig4c(base scenario.Spec) Figure {
	f := Figure{ID: "fig4c", Title: "Mean estimates: bursty vs random cross traffic"}
	var runs []*scenario.Result
	for _, cfg := range []struct {
		model scenario.CrossModel
		util  float64
	}{
		{scenario.CrossBursty, 0.67},
		{scenario.CrossBursty, 0.34},
		{scenario.CrossUniform, 0.67},
		{scenario.CrossUniform, 0.34},
	} {
		r := run(point(base, scenario.SchemeStatic, cfg.model, cfg.util))
		runs = append(runs, r)
		f.Series = append(f.Series, seriesFrom(r, core.MeanErrCDF(r.Results)))
	}
	f.Notes = append(f.Notes,
		"paper shape: bursty arrivals raise true delays and delay locality, cutting relative error ~an order of magnitude at 67%",
		fmt.Sprintf("achieved utils: %s", achieved(runs)))
	return f
}

func achieved(runs []*scenario.Result) string {
	parts := make([]string, len(runs))
	for i, r := range runs {
		parts[i] = fmt.Sprintf("%.0f%%->%.0f%%", r.Spec.Workload.CrossUtil*100, r.HotLinkUtil*100)
	}
	return strings.Join(parts, " ")
}

// Fig5Point is one x-position of Figure 5.
type Fig5Point struct {
	TargetUtil   float64
	AchievedUtil float64
	// BaseLoss is the regular traffic's loss rate with no instrumentation.
	BaseLoss float64
	// AdaptiveDiff / StaticDiff are the loss-rate increases caused by each
	// scheme's reference packets.
	AdaptiveDiff float64
	StaticDiff   float64
}

// Fig5Result is the reproduced Figure 5.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5 reproduces Figure 5 (reference packet interference): for a sweep of
// bottleneck utilizations, the increase in regular-traffic loss rate caused
// by reference packets, adaptive vs static. Each point runs the identical
// workload three times: uninstrumented, static, adaptive.
func Fig5(base scenario.Spec, utils []float64) Fig5Result {
	if len(utils) == 0 {
		utils = []float64{0.82, 0.86, 0.90, 0.94, 0.98}
	}
	var out Fig5Result
	for _, u := range utils {
		bare := run(point(base, scenario.SchemeNone, scenario.CrossUniform, u))
		static := run(point(base, scenario.SchemeStatic, scenario.CrossUniform, u))
		adaptive := run(point(base, scenario.SchemeAdaptive, scenario.CrossUniform, u))
		out.Points = append(out.Points, Fig5Point{
			TargetUtil:   u,
			AchievedUtil: bare.HotLinkUtil,
			BaseLoss:     bare.LossRate(),
			AdaptiveDiff: adaptive.LossRate() - bare.LossRate(),
			StaticDiff:   static.LossRate() - bare.LossRate(),
		})
	}
	return out
}

const fig5Title = "fig5: Reference packet interference (loss rate difference)"

// Table is Figure 5, one row per target utilization.
func (r Fig5Result) Table() stats.Table {
	t := stats.Table{
		Title:     fig5Title,
		RowHeader: "util",
		Columns:   []string{"achieved", "base-loss", "adaptive", "static"},
		Notes:     []string{"paper shape: static stays within ~4.2e-5; adaptive rises toward ~6e-4 near saturation"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, stats.TableRow{
			Label: fmt.Sprintf("%.2f", p.TargetUtil),
			Cells: []float64{p.AchievedUtil, p.BaseLoss, p.AdaptiveDiff, p.StaticDiff},
		})
	}
	return t
}

// Scalars reproduces the evaluation's quoted numbers (§4.2): base
// utilization from regular traffic alone, the adaptive gap it pins, and
// the average true latencies at the Figure-4 operating points.
type Scalars struct {
	BaseUtil         float64
	AdaptiveGap      int
	TrueMean67Random time.Duration
	TrueMean93Random time.Duration
	TrueMean67Bursty time.Duration
	Median93Static   float64
}

// RunScalars measures them.
func RunScalars(base scenario.Spec) Scalars {
	bare := run(point(base, scenario.SchemeNone, scenario.CrossNone, 0))
	r67 := run(point(base, scenario.SchemeStatic, scenario.CrossUniform, 0.67))
	r93 := run(point(base, scenario.SchemeStatic, scenario.CrossUniform, 0.93))
	b67 := run(point(base, scenario.SchemeStatic, scenario.CrossBursty, 0.67))
	return Scalars{
		BaseUtil:         bare.HotLinkUtil,
		AdaptiveGap:      core.DefaultAdaptive().Gap(bare.HotLinkUtil),
		TrueMean67Random: r67.Overall.TrueMeanDelay,
		TrueMean93Random: r93.Overall.TrueMeanDelay,
		TrueMean67Bursty: b67.Overall.TrueMeanDelay,
		Median93Static:   r93.Overall.MedianRelErr,
	}
}

const scalarsTitle = "scalars: §4.2 quoted numbers"

// Table lists the scalars one per row, durations in microseconds, with the
// paper's quoted delays as a note.
func (s Scalars) Table() stats.Table {
	row := func(label string, v float64) stats.TableRow {
		return stats.TableRow{Label: label, Cells: []float64{v}}
	}
	return stats.Table{
		Title:     scalarsTitle,
		RowHeader: "quantity",
		Columns:   []string{"value"},
		Notes:     []string{"paper, at OC-192 scale: true mean delay ~3µs @67% random, ~83µs @93% random, ~117µs @67% bursty"},
		Rows: []stats.TableRow{
			row("base utilization, regular only (paper: ~0.22)", s.BaseUtil),
			row("adaptive gap at base utilization (paper: 10)", float64(s.AdaptiveGap)),
			row("true mean delay @67% random, µs", micros(s.TrueMean67Random)),
			row("true mean delay @93% random, µs", micros(s.TrueMean93Random)),
			row("true mean delay @67% bursty, µs", micros(s.TrueMean67Bursty)),
			row("median rel err, static @93% (paper: ~0.042-0.045)", s.Median93Static),
		},
	}
}
