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
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/core"
)

// Valid values of the flags parsed here; -scale and -estimator have library
// parsers, and a fat-tree run's flags fill a scenario spec whose Validate
// names them. An unknown value exits non-zero listing the valid ones (the
// same contract cmd/experiments pins for -fig).
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
	topology   string
	injection  rlir.InjectionScheme
	live       bool // -scheme adaptive also drives the gap from the live utilization meter
	staticN    int
	model      rlir.CrossModel
	util       float64
	scale      rlir.Scale
	seed       int64
	estimator  core.Estimator
	fattree    rlir.ScenarioSpec // the -topology fattree run, validated
	duration   time.Duration
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
	fs.StringVar(&o.topology, "topology", "tandem", strings.Join(validTopologies, " | "))
	scheme := fs.String("scheme", "static", strings.Join(validSchemes, " | "))
	fs.IntVar(&o.staticN, "n", 100, "static scheme's 1-and-n gap")
	model := fs.String("model", "random", strings.Join(validModels, " | ")+" (tandem)")
	fs.Float64Var(&o.util, "util", 0.93, "target bottleneck utilization (tandem)")
	scale := fs.String("scale", "default", "small | default | full")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	estimator := fs.String("estimator", "linear", "linear | left | right | nearest")
	k := fs.Int("k", 4, "fat-tree arity (fattree)")
	demux := fs.String("demux", "reverse-ecmp", "none | marking | reverse-ecmp | oracle (fattree)")
	fs.DurationVar(&o.duration, "duration", 0, "override trace duration")
	fs.IntVar(&o.topn, "top", 10, "per-flow rows to print")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(validTopologies, o.topology) {
		return o, badValue("topology", o.topology, validTopologies)
	}
	switch *scheme {
	case "static":
		o.injection = rlir.Static{N: o.staticN}
	case "adaptive":
		o.injection, o.live = rlir.DefaultAdaptive(), true
	case "none":
	default:
		return o, badValue("scheme", *scheme, validSchemes)
	}
	switch *model {
	case "random":
		o.model = rlir.CrossUniform
	case "bursty":
		o.model = rlir.CrossBursty
	case "none":
		o.model = rlir.CrossNone
	default:
		return o, badValue("model", *model, validModels)
	}
	var err error
	if o.scale, err = rlir.ParseScale(*scale); err != nil {
		return o, fmt.Errorf("-scale %q: %w", *scale, err)
	}
	if o.estimator, err = rlir.ParseEstimator(*estimator); err != nil {
		return o, fmt.Errorf("-estimator %q: %w", *estimator, err)
	}
	if o.staticN < 0 {
		return o, fmt.Errorf("-n %d < 0", o.staticN)
	}
	if o.topology == "fattree" {
		s := rlir.DefaultFatTreeSpec()
		s.Topology.K = *k
		s.Seed = o.seed
		if o.duration > 0 {
			s.Duration = o.duration
		}
		// -scheme none is the tandem's no-sender run; a fat-tree deployment
		// has no such form and Validate says so.
		s.Deploy.Scheme = *scheme
		s.Deploy.StaticN = o.staticN
		s.Deploy.Demux = *demux
		if err := s.Validate(); err != nil {
			return o, err
		}
		o.fattree = s
	}
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
	if o.topology == "tandem" {
		err = runTandem(o, out)
	} else {
		err = runFatTree(o, out)
	}
	if err != nil {
		return err
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

func runTandem(o options, out io.Writer) error {
	sc := o.scale
	sc.Seed = o.seed
	if o.duration > 0 {
		sc.Duration = o.duration
	}
	cfg := rlir.TandemConfig{
		Scale:        sc,
		Scheme:       o.injection,
		AdaptiveLive: o.live,
		Model:        o.model,
		TargetUtil:   o.util,
		Estimator:    o.estimator,
	}

	res := rlir.RunTandem(cfg)
	fmt.Fprintf(out, "run: %s\n", res.Label())
	fmt.Fprintf(out, "achieved utilization: %.1f%%\n", res.AchievedUtil*100)
	fmt.Fprintf(out, "summary: %s\n", res.Summary)
	fmt.Fprintf(out, "receiver: %+v\n", res.Receiver)
	fmt.Fprintf(out, "sender:   %+v\n", res.Sender)
	fmt.Fprintf(out, "regular loss rate: %.6f\n", res.LossRate())
	fmt.Fprintln(out)
	fmt.Fprint(out, core.FormatResults(res.Results, o.topn))
	fmt.Fprintln(out)
	fmt.Fprint(out, rlir.MeanErrCDF(res.Results).Render("relative error (mean estimates)", 1e-3, 1e1, 9))
	return nil
}

func runFatTree(o options, out io.Writer) error {
	res, err := rlir.RunScenario(o.fattree)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fat-tree k=%d, demux=%s, injected=%d packets\n", o.fattree.Topology.K, o.fattree.Deploy.Demux, res.Injected)
	fmt.Fprintf(out, "downstream (core->ToR): %s\n", res.Overall)
	fmt.Fprintf(out, "upstream   (ToR->core): %s\n", res.Upstream)
	fmt.Fprintf(out, "misattribution: %.4f\n", res.Misattribution)
	return nil
}
