// Command scenario runs simulations: it lists the scenario registry, runs
// named scenarios (single- or multi-seed, with or without their invariant
// checks) and the library's base specs, runs ad-hoc JSON specs, and prints
// spec templates to build new ones from. -run and -describe take a
// registered name or a base spec's: the Figure-3 tandem at each scale
// (tandem-small, tandem-default, tandem-full) and the Figure-1 fat-tree
// (fattree). A run's knobs are spec fields: describe, edit, run with -spec.
//
// Usage:
//
//	scenario -list                 # registry with what each scenario stresses
//	scenario -list -json           # name array (the CI scenario-matrix input)
//	scenario -list-estimators      # registered measurement estimators
//	scenario -list-estimators -json  # name array (the CI estimator-matrix input)
//	scenario -run incast -check    # run one scenario, enforce its invariant
//	scenario -run incast -stats    # add its diagnostics, wall time and waits
//	scenario -run incast -seeds 8 -parallel 4
//	scenario -run incast -estimators rli,lda   # override the comparison set
//	scenario -run telemetry-loss -telemetry-loss 0.2  # override the export loss rate
//	scenario -run trace-replay -link-trace link.json  # replay a recorded link trace file
//	scenario -run tandem-small     # a base spec: the Figure-3 tandem
//	scenario -describe incast      # print the spec as JSON
//	scenario -spec my.json -seed 7 # run an ad-hoc spec file
//	scenario -describe tandem-small | sed 's/"static"/"adaptive"/' > a.json && scenario -spec a.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	rlir "github.com/netmeasure/rlir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	list          bool
	listEsts      bool
	jsonOut       bool
	runName       string
	describe      string
	specFile      string
	check         bool
	seed          int64
	haveSeed      bool // -seed was passed: any value, 0 included, overrides the spec's
	seeds         int
	parallel      int
	estimators    []string
	telemetryLoss float64
	linkTrace     string
	stats         bool
}

// parseArgs parses the command line into options, validating the
// combination. Split from run so tests can exercise the flag surface
// without executing simulations.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.BoolVar(&o.list, "list", false, "list registered scenarios")
	fs.BoolVar(&o.listEsts, "list-estimators", false, "list registered measurement estimators")
	fs.BoolVar(&o.jsonOut, "json", false, "with -list/-list-estimators: print names as a JSON array")
	fs.StringVar(&o.runName, "run", "", "run a registered scenario or base spec by name")
	fs.StringVar(&o.describe, "describe", "", "print a registered scenario's or base spec's spec as JSON")
	fs.StringVar(&o.specFile, "spec", "", "run an ad-hoc spec from a JSON file")
	fs.BoolVar(&o.check, "check", false, "apply the scenario's invariant; non-zero exit on violation")
	fs.Int64Var(&o.seed, "seed", 0, "override the spec seed")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent derived seeds; > 1 reports mean ± 95% CI")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent runs for multi-seed sweeps (0 = GOMAXPROCS)")
	ests := fs.String("estimators", "", "comma-separated estimator set for -run/-spec (rli is always included; empty keeps the spec's)")
	fs.Float64Var(&o.telemetryLoss, "telemetry-loss", -1, "override (or enable) the spec's telemetry export loss rate in [0, 1) for -run/-spec (-1 keeps the spec's)")
	fs.BoolVar(&o.stats, "stats", false, "with a single-seed -run/-spec: print the run's diagnostics, its wall time and how often the simulator waited on its neighbours")
	fs.StringVar(&o.linkTrace, "link-trace", "", "replay a recorded link trace file (JSON or CSV, see cmd/tracegen -emit link) on a core down-link for -run/-spec (replaces the spec's inline rows)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	o.haveSeed = set["seed"]
	modes := 0
	for _, on := range []bool{o.list, o.listEsts, o.runName != "", o.describe != "", o.specFile != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return o, fmt.Errorf("need exactly one of -list, -list-estimators, -run, -describe, -spec")
	}
	// A flag outside its mode is an error, not a silent no-op.
	runs := o.runName != "" || o.specFile != ""
	for _, name := range []string{"check", "seed", "seeds", "parallel", "estimators", "telemetry-loss", "link-trace", "stats"} {
		if set[name] && !runs {
			return o, fmt.Errorf("-%s applies to -run/-spec", name)
		}
	}
	if set["json"] && !o.list && !o.listEsts {
		return o, fmt.Errorf("-json applies to -list/-list-estimators")
	}
	if o.seeds < 1 {
		return o, fmt.Errorf("-seeds %d < 1", o.seeds)
	}
	if o.stats && o.seeds > 1 {
		return o, fmt.Errorf("-stats applies to a single-seed run")
	}
	if o.parallel < 0 {
		return o, fmt.Errorf("-parallel %d < 0", o.parallel)
	}
	if _, base := baseSpec(o.runName); o.check && (o.specFile != "" || base) {
		return o, fmt.Errorf("-check needs a registered scenario (ad-hoc and base specs carry no invariant)")
	}
	if o.telemetryLoss >= 1 {
		return o, fmt.Errorf("-telemetry-loss %v outside [0, 1)", o.telemetryLoss)
	}
	if *ests != "" {
		list, err := rlir.ParseEstimatorList(*ests)
		if err != nil {
			return o, err
		}
		o.estimators = list
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch {
	case o.list:
		return list(o, out)
	case o.listEsts:
		return listEstimators(o, out)
	case o.describe != "":
		spec, _, err := lookup(o.describe)
		if err != nil {
			return err
		}
		data, err := spec.EncodeJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	case o.runName != "":
		spec, check, err := lookup(o.runName)
		if err != nil {
			return err
		}
		return execute(o, spec, check, out)
	default:
		data, err := os.ReadFile(o.specFile)
		if err != nil {
			return err
		}
		spec, err := rlir.DecodeScenarioSpec(data)
		if err != nil {
			return err
		}
		return execute(o, spec, nil, out)
	}
}

func list(o options, out io.Writer) error {
	if o.jsonOut {
		data, err := json.Marshal(rlir.ScenarioNames())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	// The name column is as wide as the longest registered name.
	width := 0
	for _, name := range rlir.ScenarioNames() {
		width = max(width, len(name))
	}
	for _, sc := range rlir.Scenarios() {
		fmt.Fprintf(out, "%-*s %s\n%-*s invariant: %s\n", width, sc.Name, sc.Stresses, width, "", sc.Invariant)
	}
	return nil
}

// listEstimators prints the measure registry — the CI estimator-matrix
// input in -json form.
func listEstimators(o options, out io.Writer) error {
	names := rlir.EstimatorNames()
	if o.jsonOut {
		data, err := json.Marshal(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	for _, n := range names {
		fmt.Fprintln(out, n)
	}
	return nil
}

// execute runs one spec (optionally checked) single- or multi-seed.
func execute(o options, spec rlir.ScenarioSpec, check func(*rlir.ScenarioResult) error, out io.Writer) error {
	if o.haveSeed {
		spec.Seed = o.seed
	}
	if len(o.estimators) > 0 {
		spec.Deploy.Estimators = o.estimators
	}
	if o.telemetryLoss >= 0 {
		t := rlir.ScenarioTelemetrySpec{LossRate: o.telemetryLoss}
		if spec.Telemetry != nil {
			t = *spec.Telemetry
			t.LossRate = o.telemetryLoss
		}
		spec.Telemetry = &t
	}
	if o.linkTrace != "" {
		if err := applyLinkTrace(&spec, o.linkTrace); err != nil {
			return err
		}
	}
	if o.seeds > 1 {
		mr, err := rlir.RunScenarioMulti(spec, rlir.ScenarioMultiOpts{Seeds: o.seeds, Workers: o.parallel})
		if err != nil {
			return err
		}
		fmt.Fprint(out, mr.Render())
		if o.check && check != nil {
			if err := mr.CheckAll(check); err != nil {
				return fmt.Errorf("invariant violated: %w", err)
			}
			fmt.Fprintf(out, "invariant held on all %d seeds\n", o.seeds)
		}
		return nil
	}
	if o.stats {
		return executeStats(spec, check, o.check, out)
	}
	res, err := rlir.RunScenario(spec)
	if err != nil {
		return err
	}
	return report(res, check, o.check, out)
}

// report prints a single run and, when asked, checks its invariant.
func report(res *rlir.ScenarioResult, check func(*rlir.ScenarioResult) error, checked bool, out io.Writer) error {
	fmt.Fprint(out, res.Render())
	if checked && check != nil {
		if err := check(res); err != nil {
			return fmt.Errorf("invariant violated: %w", err)
		}
		fmt.Fprintln(out, "invariant held")
	}
	return nil
}

// executeStats runs one spec through the export path, whose Result is the
// plain run's bit for bit, and prints the run, its diagnostics, its wall
// time and how often the simulator waited on its neighbours.
func executeStats(spec rlir.ScenarioSpec, check func(*rlir.ScenarioResult) error, checked bool, out io.Writer) error {
	start := time.Now()
	tr, err := rlir.ExportScenarioTrace(spec, spec.Seed)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if err := report(tr.Result, check, checked, out); err != nil {
		return err
	}
	fmt.Fprint(out, "\n", tr.Result.Diagnostics.Table().Render())
	w := tr.Waits()
	fmt.Fprintf(out, "wall %v; blocked on the passive consumer %d times (%v), on the workload producers %d times (%v)\n",
		wall.Round(time.Microsecond), w.TapBlocked, w.TapWait.Round(time.Microsecond), w.WorkBlocked, w.WorkWait.Round(time.Microsecond))
	return nil
}

// applyLinkTrace loads a recorded link trace file and replays it in spec:
// the spec's own link addressing is kept when it already carries a
// LinkTrace; otherwise the trace lands on core (0,0)'s down-link to the
// last pod (the converging destination the registered scenarios monitor).
func applyLinkTrace(spec *rlir.ScenarioSpec, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-link-trace: %w", err)
	}
	lt, err := rlir.ParseLinkTrace(data)
	if err != nil {
		return fmt.Errorf("-link-trace %s: %w", path, err)
	}
	l := rlir.ScenarioLinkTraceSpec{DownPod: spec.Topology.K - 1}
	if spec.LinkTrace != nil {
		l = *spec.LinkTrace
	}
	l.Samples = make([]rlir.ScenarioLinkTraceSampleSpec, len(lt.Samples))
	for i, s := range lt.Samples {
		l.Samples[i] = rlir.ScenarioLinkTraceSampleSpec{T: s.At, Delay: s.Delay, Loss: s.Loss}
	}
	spec.LinkTrace = &l
	return spec.Validate()
}

// baseSpecs are the library's base specs, named by their Spec.Name.
func baseSpecs() []rlir.ScenarioSpec {
	var specs []rlir.ScenarioSpec
	for _, scale := range []string{"small", "default", "full"} {
		s, err := rlir.TandemSpec(scale)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return append(specs, rlir.DefaultFatTreeSpec())
}

// baseSpec returns the base spec with the given name.
func baseSpec(name string) (rlir.ScenarioSpec, bool) {
	for _, s := range baseSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return rlir.ScenarioSpec{}, false
}

// lookup resolves a -run/-describe name: a registered scenario with its
// invariant, else a base spec, which has none.
func lookup(name string) (rlir.ScenarioSpec, func(*rlir.ScenarioResult) error, error) {
	if sc, ok := rlir.ScenarioByName(name); ok {
		return sc.Spec, sc.Check, nil
	}
	if s, ok := baseSpec(name); ok {
		return s, nil, nil
	}
	var bases []string
	for _, s := range baseSpecs() {
		bases = append(bases, s.Name)
	}
	return rlir.ScenarioSpec{}, nil, fmt.Errorf("unknown scenario %q (registered: %s; base specs: %s)",
		name, strings.Join(rlir.ScenarioNames(), ", "), strings.Join(bases, ", "))
}
