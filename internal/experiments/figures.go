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

// Render draws the figure as log-x CDF tables, the textual stand-in for
// the paper's plots.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	for _, s := range f.Series {
		if s.CDF.N() == 0 {
			fmt.Fprintf(&b, "%-28s (no samples)\n", s.Label)
			continue
		}
		b.WriteString(s.CDF.Render(s.Label, 1e-3, 1e1, 9))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table summarizes the figure for the across-seed fold: each series'
// headline quantiles. A series whose CDF came out empty contributes NaN —
// "no value at this seed" — so the fold reports its effective n.
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

// fig4Run executes the four runs shared by Figures 4(a) and 4(b): adaptive
// and static schemes at two bottleneck utilizations under the random cross
// traffic model.
func fig4Runs(scale scenario.Scale, utils [2]float64) []scenario.TandemResult {
	var out []scenario.TandemResult
	for _, u := range utils {
		adaptive := scenario.RunTandem(scenario.TandemConfig{
			Scale:        scale,
			Scheme:       core.DefaultAdaptive(),
			AdaptiveLive: true,
			Model:        scenario.CrossUniform,
			TargetUtil:   u,
		})
		static := scenario.RunTandem(scenario.TandemConfig{
			Scale:      scale,
			Scheme:     core.DefaultStatic(),
			Model:      scenario.CrossUniform,
			TargetUtil: u,
		})
		out = append(out, adaptive, static)
	}
	return out
}

func seriesFrom(r scenario.TandemResult, cdf *stats.CDF) Series {
	return Series{
		Label: r.Label(),
		CDF:   cdf,
		Meta: map[string]float64{
			"achievedUtil": r.AchievedUtil,
			"flows":        float64(r.Summary.Flows),
			"medianRelErr": safeMedian(cdf),
			"trueMeanUs":   micros(r.Summary.TrueMeanDelay),
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
func Fig4a(scale scenario.Scale) Figure {
	runs := fig4Runs(scale, [2]float64{0.93, 0.67})
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
func Fig4b(scale scenario.Scale) Figure {
	runs := fig4Runs(scale, [2]float64{0.93, 0.67})
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
func Fig4c(scale scenario.Scale) Figure {
	f := Figure{ID: "fig4c", Title: "Mean estimates: bursty vs random cross traffic"}
	var runs []scenario.TandemResult
	for _, cfg := range []struct {
		model scenario.CrossModel
		util  float64
	}{
		{scenario.CrossBursty, 0.67},
		{scenario.CrossBursty, 0.34},
		{scenario.CrossUniform, 0.67},
		{scenario.CrossUniform, 0.34},
	} {
		r := scenario.RunTandem(scenario.TandemConfig{
			Scale:      scale,
			Scheme:     core.DefaultStatic(),
			Model:      cfg.model,
			TargetUtil: cfg.util,
		})
		runs = append(runs, r)
		f.Series = append(f.Series, seriesFrom(r, core.MeanErrCDF(r.Results)))
	}
	f.Notes = append(f.Notes,
		"paper shape: bursty arrivals raise true delays and delay locality, cutting relative error ~an order of magnitude at 67%",
		fmt.Sprintf("achieved utils: %s", achieved(runs)))
	return f
}

func achieved(runs []scenario.TandemResult) string {
	parts := make([]string, len(runs))
	for i, r := range runs {
		parts[i] = fmt.Sprintf("%.0f%%->%.0f%%", r.Config.TargetUtil*100, r.AchievedUtil*100)
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
func Fig5(scale scenario.Scale, utils []float64) Fig5Result {
	if len(utils) == 0 {
		utils = []float64{0.82, 0.86, 0.90, 0.94, 0.98}
	}
	var out Fig5Result
	for _, u := range utils {
		base := scenario.RunTandem(scenario.TandemConfig{
			Scale: scale, Scheme: nil, Model: scenario.CrossUniform, TargetUtil: u,
		})
		static := scenario.RunTandem(scenario.TandemConfig{
			Scale: scale, Scheme: core.DefaultStatic(), Model: scenario.CrossUniform, TargetUtil: u,
		})
		adaptive := scenario.RunTandem(scenario.TandemConfig{
			Scale: scale, Scheme: core.DefaultAdaptive(), AdaptiveLive: true,
			Model: scenario.CrossUniform, TargetUtil: u,
		})
		out.Points = append(out.Points, Fig5Point{
			TargetUtil:   u,
			AchievedUtil: base.AchievedUtil,
			BaseLoss:     base.LossRate(),
			AdaptiveDiff: adaptive.LossRate() - base.LossRate(),
			StaticDiff:   static.LossRate() - base.LossRate(),
		})
	}
	return out
}

// Render draws Figure 5 as a table.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("== fig5: Reference packet interference (loss rate difference) ==\n")
	fmt.Fprintf(&b, "%-8s %-9s %-12s %-12s %-12s\n", "util", "achieved", "base-loss", "adaptive", "static")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8.2f %-9.2f %-12.6f %+-12.6f %+-12.6f\n",
			p.TargetUtil, p.AchievedUtil, p.BaseLoss, p.AdaptiveDiff, p.StaticDiff)
	}
	b.WriteString("note: paper shape: static stays within ~4.2e-5; adaptive rises toward ~6e-4 near saturation\n")
	return b.String()
}

// Table is Figure 5 in across-seed form, one row per target utilization.
func (r Fig5Result) Table() stats.Table {
	t := stats.Table{
		Title:     "fig5: Reference packet interference (loss rate difference)",
		RowHeader: "util",
		Columns:   []string{"achieved", "base-loss", "adaptive", "static"},
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
func RunScalars(scale scenario.Scale) Scalars {
	base := scenario.RunTandem(scenario.TandemConfig{Scale: scale, Scheme: nil, Model: scenario.CrossNone})
	r67 := scenario.RunTandem(scenario.TandemConfig{Scale: scale, Scheme: core.DefaultStatic(), Model: scenario.CrossUniform, TargetUtil: 0.67})
	r93 := scenario.RunTandem(scenario.TandemConfig{Scale: scale, Scheme: core.DefaultStatic(), Model: scenario.CrossUniform, TargetUtil: 0.93})
	b67 := scenario.RunTandem(scenario.TandemConfig{Scale: scale, Scheme: core.DefaultStatic(), Model: scenario.CrossBursty, TargetUtil: 0.67})
	return Scalars{
		BaseUtil:         base.AchievedUtil,
		AdaptiveGap:      core.DefaultAdaptive().Gap(base.AchievedUtil),
		TrueMean67Random: r67.Summary.TrueMeanDelay,
		TrueMean93Random: r93.Summary.TrueMeanDelay,
		TrueMean67Bursty: b67.Summary.TrueMeanDelay,
		Median93Static:   r93.Summary.MedianRelErr,
	}
}

// Render formats the scalars against the paper's quotes.
func (s Scalars) Render() string {
	var b strings.Builder
	b.WriteString("== scalars: §4.2 quoted numbers ==\n")
	fmt.Fprintf(&b, "base utilization (regular only):   %.0f%%   (paper: ~22%%)\n", s.BaseUtil*100)
	fmt.Fprintf(&b, "adaptive gap at base utilization:  1-and-%d (paper: 1-and-10)\n", s.AdaptiveGap)
	fmt.Fprintf(&b, "true mean delay @67%% random:       %v (paper: ~3µs at OC-192 scale)\n", s.TrueMean67Random)
	fmt.Fprintf(&b, "true mean delay @93%% random:       %v (paper: ~83µs)\n", s.TrueMean93Random)
	fmt.Fprintf(&b, "true mean delay @67%% bursty:       %v (paper: ~117µs)\n", s.TrueMean67Bursty)
	fmt.Fprintf(&b, "median rel err, static @93%%:       %.3f (paper: ~4.2%%-4.5%%)\n", s.Median93Static)
	return b.String()
}

// Table lists the scalars one per row, durations in microseconds.
func (s Scalars) Table() stats.Table {
	row := func(label string, v float64) stats.TableRow {
		return stats.TableRow{Label: label, Cells: []float64{v}}
	}
	return stats.Table{
		Title:     "scalars: §4.2 quoted numbers",
		RowHeader: "quantity",
		Columns:   []string{"value"},
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
