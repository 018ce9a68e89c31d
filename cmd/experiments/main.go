// Command experiments regenerates every table and figure of the paper's
// evaluation (and the repository's ablations) and prints them as text
// tables and CDF renderings.
//
// With -seeds N (N > 1) it instead runs each experiment at N independent
// SplitMix64-derived seeds, fanned across -parallel workers, and reports
// headline metrics as mean ± 95% CI — the statistically rigorous form of
// the same figures.
//
// Usage:
//
//	experiments -all
//	experiments -fig 4a -scale default
//	experiments -fig 5
//	experiments -fig A1
//	experiments -all -seeds 8 -parallel 4
//	experiments -scenario incast -seeds 8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// targetIDs lists every -fig value in -all order (the registry's).
func targetIDs() []string {
	var ids []string
	for _, t := range rlir.ExperimentTargets() {
		ids = append(ids, t.ID)
	}
	return ids
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig      = flag.String("fig", "", "which result to regenerate: "+strings.Join(targetIDs(), " "))
		all      = flag.Bool("all", false, "regenerate everything")
		scenName = flag.String("scenario", "", "run a registered scenario from the scenario engine (see cmd/scenario -list)")
		ests     = flag.String("estimators", "", "with -scenario: comma-separated estimator set (rli always included)")
		scale    = flag.String("scale", "default", "small | default | full")
		seed     = flag.Int64("seed", 1, "deterministic base seed")
		seeds    = flag.Int("seeds", 1, "number of independent seeds; > 1 reports mean ± 95% CI")
		parallel = flag.Int("parallel", 0, "max concurrent runs for multi-seed sweeps (0 = GOMAXPROCS)")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory (single-seed only)")
	)
	flag.Parse()

	sc, err := rlir.ParseScale(*scale)
	if err != nil {
		log.Fatalf("-scale: %v", err)
	}
	sc.Seed = *seed
	if *seeds < 1 {
		log.Fatalf("-seeds %d < 1", *seeds)
	}
	opts := rlir.MultiOpts{Seeds: *seeds, Workers: *parallel}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["csv"] && *seeds > 1 {
		// The multi-seed harnesses render CI tables, not CDF series; fail
		// loudly rather than silently write nothing.
		log.Fatal("-csv applies to single-seed figure runs only; drop -seeds or -csv")
	}

	if *scenName == "" && *ests != "" {
		log.Fatal("-estimators applies to -scenario runs only")
	}
	if *scenName != "" {
		// Scenarios are sized by their registered spec (or a cmd/scenario
		// -spec file), not by the figure harness's scale; fail loudly
		// rather than silently run something other than what was asked.
		if set["scale"] || set["csv"] {
			log.Fatal("-scale/-csv do not apply to -scenario; size scenarios via their spec (see cmd/scenario)")
		}
		estimators, err := rlir.ParseEstimatorList(*ests)
		if err != nil {
			log.Fatal(err)
		}
		if err := runScenario(*scenName, *seed, set["seed"], *seeds, *parallel, estimators); err != nil {
			log.Fatal(err)
		}
		return
	}

	var targets []rlir.ExperimentTarget
	if *all {
		targets = rlir.ExperimentTargets()
	} else if *fig != "" {
		for _, id := range strings.Split(*fig, ",") {
			t, err := rlir.ParseExperimentTarget(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			targets = append(targets, t)
		}
	} else {
		flag.Usage()
		log.Fatal("need -fig, -all or -scenario")
	}

	for _, t := range targets {
		start := time.Now()
		if err := run(os.Stdout, t, sc, opts, *csvDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s done in %v]\n\n", t.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runScenario dispatches the -scenario target onto the scenario engine.
// The spec's registered seed applies unless the -seed flag was explicitly
// passed (haveSeed), so any seed value — including 0 — can be forced.
func runScenario(name string, seed int64, haveSeed bool, seeds, parallel int, estimators []string) error {
	scen, ok := rlir.ScenarioByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (registered: %s)", name, strings.Join(rlir.ScenarioNames(), ", "))
	}
	spec := scen.Spec
	if haveSeed {
		spec.Seed = seed
	}
	if len(estimators) > 0 {
		spec.Deploy.Estimators = estimators
	}
	if seeds > 1 {
		mr, err := rlir.RunScenarioMulti(spec, rlir.ScenarioMultiOpts{Seeds: seeds, Workers: parallel})
		if err != nil {
			return err
		}
		fmt.Print(mr.Render())
		return nil
	}
	res, err := rlir.RunScenario(spec)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

// run is the one dispatch every target goes through: a sweep prints the
// target's across-seed table; a single seed — and a target that is always
// reported from one run — prints its own rendering and, with -csv, writes
// its series.
func run(out io.Writer, t rlir.ExperimentTarget, sc rlir.Scale, opts rlir.MultiOpts, csvDir string) error {
	if opts.Seeds > 1 && !t.SingleSeed {
		ci, err := rlir.Sweep(t, sc, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, ci.Render())
		return nil
	}
	if opts.Seeds > 1 {
		fmt.Fprintf(out, "%s is reported from a single run; -seeds does not apply\n", t.ID)
	}
	res := t.Run(sc)
	fmt.Fprint(out, res.Render())
	if csvDir == "" {
		return nil
	}
	switch r := res.(type) {
	case rlir.Figure:
		files, err := r.WriteCSV(csvDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d CSV series to %s\n", len(files), csvDir)
	case rlir.Fig5Result:
		if _, err := r.WriteCSV(csvDir); err != nil {
			return err
		}
	}
	return nil
}
