package experiments

import (
	"fmt"
	"strings"

	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/topo"
)

// Result is what every target regenerates: its metrics as a stats.Table,
// which Render prints for one run and Sweep folds across seeds.
type Result interface {
	Table() stats.Table
}

// Target is one regenerable result of the evaluation: a figure, a quoted
// table or an ablation.
type Target struct {
	// ID is the name the cmd/experiments -fig flag takes.
	ID string
	// SingleSeed marks a target reported from one run even when a sweep is
	// asked for: placement is exact combinatorics, and Figure 5 is a
	// within-run differential measurement.
	SingleSeed bool
	// Run regenerates the target from base, a valid tandem spec
	// (scenario.TandemSpec): the tandem figures take its magnitudes and
	// seed, the fat-tree ones (A1, L1) its seed only. An invalid base
	// panics with its validation error.
	Run func(base scenario.Spec) Result
}

// targets is the registry, in cmd/experiments -all order.
var targets = []Target{
	{ID: "placement", SingleSeed: true, Run: func(scenario.Spec) Result { return runPlacement() }},
	{ID: "scalars", Run: func(b scenario.Spec) Result { return RunScalars(b) }},
	{ID: "4a", Run: func(b scenario.Spec) Result { return Fig4a(b) }},
	{ID: "4b", Run: func(b scenario.Spec) Result { return Fig4b(b) }},
	{ID: "4c", Run: func(b scenario.Spec) Result { return Fig4c(b) }},
	{ID: "5", SingleSeed: true, Run: func(b scenario.Spec) Result { return Fig5(b, nil) }},
	{ID: "A1", Run: func(b scenario.Spec) Result {
		spec := DefaultFatTreeSpec()
		spec.Seed = b.Seed
		return must(AblationDemux(spec))
	}},
	{ID: "A2", Run: func(b scenario.Spec) Result { return AblationEstimators(b, 0.8) }},
	{ID: "A3", Run: func(b scenario.Spec) Result { return AblationClocks(b, 0.8) }},
	{ID: "B1", Run: func(b scenario.Spec) Result { return RunBaselines(b, 0.85) }},
	{ID: "L1", Run: func(b scenario.Spec) Result {
		cfg := DefaultLocalizationConfig()
		cfg.Spec.Seed = b.Seed
		return must(RunLocalization(cfg))
	}},
}

// must unwraps a run of a spec this package derived from a valid base or
// its own defaults: those validate at any seed, so an error here is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Targets returns the registry in -all order.
func Targets() []Target { return targets }

// ParseTarget returns the target with the given ID; the error lists the
// valid ones.
func ParseTarget(id string) (Target, error) {
	ids := make([]string, len(targets))
	for i, t := range targets {
		if t.ID == id {
			return t, nil
		}
		ids[i] = t.ID
	}
	return Target{}, fmt.Errorf("unknown -fig target %q (valid: %s)", id, strings.Join(ids, " "))
}

// Sweep regenerates the target at opts.Seeds SplitMix64-derived seeds,
// fanned across opts.Workers, and folds the runs' tables cell by cell into
// mean ± 95% CI. The result is identical for any worker count. A SingleSeed
// target is its one run at base.Seed, folded alone (N = 1). The error is
// FoldTables': a target whose table shape depends on the seed.
func Sweep(t Target, base scenario.Spec, opts scenario.MultiOpts) (stats.TableCI, error) {
	seeds := []int64{base.Seed}
	if !t.SingleSeed {
		seeds = opts.DeriveSeeds(base.Seed)
	}
	tables := runner.Map(seeds, opts.Workers, func(i int, seed int64) stats.Table {
		s := base
		s.Seed = seed
		return t.Run(s).Table()
	})
	ci, err := stats.FoldTables(tables)
	if err != nil {
		return stats.TableCI{}, fmt.Errorf("target %s: %w", t.ID, err)
	}
	return ci, nil
}

// PlacementResult is the §3.1 deployment-complexity table.
type PlacementResult []topo.Row

// runPlacement computes the table for the arities the paper discusses.
func runPlacement() PlacementResult {
	rows, err := topo.Table([]int{4, 8, 16, 32, 48})
	if err != nil {
		panic(err) // the arities above are all valid
	}
	return rows
}

const placementTitle = "§3.1: deployment complexity (measurement instances)"

// Table is the placement table, one row per arity, with the closed forms
// as a note.
func (p PlacementResult) Table() stats.Table {
	t := stats.Table{
		Title:     placementTitle,
		RowHeader: "k",
		Columns:   []string{"pair-of-ifaces", "pair-of-ToRs", "all-ToR-pairs", "full-deploy", "savings(x)"},
		Notes: []string{"closed forms: pair-of-ifaces (k+2), pair-of-ToRs k(k+2)/2, all-ToR-pairs (k/2)^2(k+1), " +
			"full-deploy (5/4)k^3(k-1), savings = full-deploy / all-ToR-pairs"},
	}
	for _, r := range p {
		t.Rows = append(t.Rows, stats.TableRow{
			Label: fmt.Sprint(r.K),
			Cells: []float64{float64(r.PairOfInterfaces), float64(r.PairOfToRs), float64(r.AllToRPairs), float64(r.FullDeployment), r.Reduction},
		})
	}
	return t
}
