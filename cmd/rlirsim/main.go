// Command rlirsim runs a single RLIR simulation and prints per-flow
// accuracy results: either the paper's two-switch tandem (Figure 3) or a
// full k-ary fat-tree deployment (Figure 1).
//
// Usage:
//
//	rlirsim -topology tandem -scheme static -model random -util 0.93
//	rlirsim -topology fattree -k 4 -demux reverse-ecmp
//	rlirsim -cpuprofile cpu.pprof -memprofile mem.pprof   # go tool pprof output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/core"
)

// Valid values of the flags parsed here; -scale has a library parser, and
// the flags fill a scenario spec whose Validate names every other bad value.
// An unknown value exits non-zero listing the valid ones (the same contract
// cmd/experiments pins for -fig).
var (
	validTopologies = []string{"tandem", "fattree"}
	validSchemes    = []string{"static", "adaptive", "none"}
	validModels     = []string{"random", "bursty", "none"}
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rlirsim:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	spec       rlir.ScenarioSpec // the run, validated
	topn       int
	cpuprofile string
	memprofile string
}

// badValue is the uniform rejection: echo the flag and value, list what is
// valid.
func badValue(flagName, got string, valid []string) error {
	return fmt.Errorf("unknown -%s %q (valid: %s)", flagName, got, strings.Join(valid, ", "))
}

// parseArgs parses and validates the command line. Split from run so tests
// can exercise the flag surface without executing simulations.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("rlirsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	topology := fs.String("topology", "tandem", strings.Join(validTopologies, " | "))
	scheme := fs.String("scheme", "static", strings.Join(validSchemes, " | "))
	staticN := fs.Int("n", 100, "static scheme's 1-and-n gap")
	model := fs.String("model", "random", strings.Join(validModels, " | ")+" (tandem)")
	util := fs.Float64("util", 0.93, "target bottleneck utilization (tandem)")
	scale := fs.String("scale", "default", "small | default | full (tandem)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	estimator := fs.String("estimator", "linear", "linear | left | right | nearest")
	k := fs.Int("k", 4, "fat-tree arity (fattree)")
	demux := fs.String("demux", "reverse-ecmp", "none | marking | reverse-ecmp | oracle (fattree)")
	duration := fs.Duration("duration", 0, "override trace duration")
	fs.IntVar(&o.topn, "top", 10, "per-flow rows to print")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(validTopologies, *topology) {
		return o, badValue("topology", *topology, validTopologies)
	}
	if !slices.Contains(validSchemes, *scheme) {
		return o, badValue("scheme", *scheme, validSchemes)
	}
	models := map[string]rlir.CrossModel{"random": rlir.CrossUniform, "bursty": rlir.CrossBursty, "none": rlir.CrossNone}
	if _, ok := models[*model]; !ok {
		return o, badValue("model", *model, validModels)
	}
	s, err := rlir.TandemSpec(*scale)
	if err != nil {
		return o, fmt.Errorf("-scale %q: %w", *scale, err)
	}
	if *staticN < 0 {
		return o, fmt.Errorf("-n %d < 0", *staticN)
	}
	if *topology == "fattree" {
		s = rlir.DefaultFatTreeSpec()
		s.Topology.K = *k
		s.Deploy.Demux = *demux
	} else {
		s.Workload.CrossModel = models[*model]
		s.Workload.CrossUtil = *util
	}
	s.Seed = *seed
	if *duration > 0 {
		s.Duration = *duration
	}
	// -scheme none is the tandem's no-sender run; a fat-tree deployment
	// has no such form and Validate says so.
	s.Deploy.Scheme = *scheme
	s.Deploy.StaticN = *staticN
	s.Deploy.Interpolation = *estimator
	if err := s.Validate(); err != nil {
		return o, err
	}
	o.spec = s
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	res, err := rlir.RunScenario(o.spec)
	if err != nil {
		return err
	}
	if o.spec.Topology.Kind == "tandem" {
		printTandem(res, o.topn, out)
	} else {
		printFatTree(res, out)
	}
	if o.memprofile != "" {
		f, ferr := os.Create(o.memprofile)
		if ferr != nil {
			return fmt.Errorf("-memprofile: %w", ferr)
		}
		defer f.Close()
		runtime.GC() // flush to allocation ground truth before snapshotting
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			return fmt.Errorf("-memprofile: %w", werr)
		}
	}
	return nil
}

func printTandem(res *rlir.ScenarioResult, topn int, out io.Writer) {
	fmt.Fprintf(out, "run: %s\n", res.Spec.Label())
	fmt.Fprintf(out, "achieved utilization: %.1f%%\n", res.HotLinkUtil*100)
	fmt.Fprintf(out, "summary: %s\n", res.Overall)
	fmt.Fprintf(out, "receiver: %+v\n", res.Receiver)
	fmt.Fprintf(out, "sender:   %+v\n", res.Sender)
	fmt.Fprintf(out, "regular loss rate: %.6f\n", res.LossRate())
	fmt.Fprintln(out)
	fmt.Fprint(out, core.FormatResults(res.Results, topn))
	fmt.Fprintln(out)
	fmt.Fprint(out, rlir.MeanErrCDF(res.Results).Render("relative error (mean estimates)", 1e-3, 1e1, 9))
}

func printFatTree(res *rlir.ScenarioResult, out io.Writer) {
	fmt.Fprintf(out, "fat-tree k=%d, demux=%s, injected=%d packets\n", res.Spec.Topology.K, res.Spec.Deploy.Demux, res.Injected)
	fmt.Fprintf(out, "downstream (core->ToR): %s\n", res.Overall)
	fmt.Fprintf(out, "upstream   (ToR->core): %s\n", res.Upstream)
	fmt.Fprintf(out, "misattribution: %.4f\n", res.Misattribution)
}
