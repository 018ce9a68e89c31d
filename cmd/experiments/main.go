// Command experiments regenerates every table and figure of the paper's
// evaluation (and the repository's ablations) and prints them as text
// tables, and each figure's CDF curves.
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
//
// Registered scenarios run through cmd/scenario (-run NAME -seeds N).
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
		scale    = flag.String("scale", "default", "small | default | full")
		seed     = flag.Int64("seed", 1, "deterministic base seed")
		seeds    = flag.Int("seeds", 1, "number of independent seeds; > 1 reports mean ± 95% CI")
		parallel = flag.Int("parallel", 0, "max concurrent runs for multi-seed sweeps (0 = GOMAXPROCS)")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory (single-seed only)")
	)
	flag.Parse()

	base, err := rlir.TandemSpec(*scale)
	if err != nil {
		log.Fatalf("-scale: %v", err)
	}
	base.Seed = *seed
	if *seeds < 1 {
		log.Fatalf("-seeds %d < 1", *seeds)
	}
	opts := rlir.MultiOpts{Seeds: *seeds, Workers: *parallel}
	if *csvDir != "" && *seeds > 1 {
		// The multi-seed harnesses render CI tables, not CDF series; fail
		// loudly rather than silently write nothing.
		log.Fatal("-csv applies to single-seed figure runs only; drop -seeds or -csv")
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
		log.Fatal("need -fig or -all")
	}

	for _, t := range targets {
		start := time.Now()
		if err := run(os.Stdout, t, base, opts, *csvDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s done in %v]\n\n", t.ID, time.Since(start).Round(time.Millisecond))
	}
}

// run is the one dispatch every target goes through: a sweep prints the
// target's across-seed table; a single seed — and a target that is always
// reported from one run — prints that run's table, a figure also its CDF
// curves, and with -csv writes its series.
func run(out io.Writer, t rlir.ExperimentTarget, base rlir.ScenarioSpec, opts rlir.MultiOpts, csvDir string) error {
	if opts.Seeds > 1 && !t.SingleSeed {
		ci, err := rlir.Sweep(t, base, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, ci.Render())
		return nil
	}
	if opts.Seeds > 1 {
		fmt.Fprintf(out, "%s is reported from a single run; -seeds does not apply\n", t.ID)
	}
	res := t.Run(base)
	fmt.Fprint(out, res.Table().Render())
	switch r := res.(type) {
	case rlir.Figure:
		for _, s := range r.Series {
			fmt.Fprint(out, s.CDF.Render(s.Label, 1e-3, 1e1, 9))
		}
		if csvDir != "" {
			files, err := r.WriteCSV(csvDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %d CSV series to %s\n", len(files), csvDir)
		}
	case rlir.Fig5Result:
		if csvDir != "" {
			if _, err := r.WriteCSV(csvDir); err != nil {
				return err
			}
		}
	}
	return nil
}
