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

// Valid values for every enumerated flag. An unknown value exits non-zero
// listing the valid ones (the same contract cmd/experiments pins for
// -fig).
var (
	validTopologies = []string{"tandem", "fattree"}
	validSchemes    = []string{"static", "adaptive", "none"}
	validModels     = []string{"random", "bursty", "none"}
	validScales     = []string{"small", "default", "full"}
	validEstimators = []string{"linear", "left", "right", "nearest"}
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
	scheme     string
	staticN    int
	model      string
	util       float64
	scale      string
	seed       int64
	estName    string
	k          int
	demux      rlir.DemuxStrategy
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
	fs.StringVar(&o.scheme, "scheme", "static", strings.Join(validSchemes, " | "))
	fs.IntVar(&o.staticN, "n", 100, "static scheme's 1-and-n gap")
	fs.StringVar(&o.model, "model", "random", strings.Join(validModels, " | ")+" (tandem)")
	fs.Float64Var(&o.util, "util", 0.93, "target bottleneck utilization (tandem)")
	fs.StringVar(&o.scale, "scale", "default", strings.Join(validScales, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	fs.StringVar(&o.estName, "estimator", "linear", strings.Join(validEstimators, " | "))
	fs.IntVar(&o.k, "k", 4, "fat-tree arity (fattree)")
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
	switch {
	case !slices.Contains(validTopologies, o.topology):
		return o, badValue("topology", o.topology, validTopologies)
	case !slices.Contains(validSchemes, o.scheme):
		return o, badValue("scheme", o.scheme, validSchemes)
	case !slices.Contains(validModels, o.model):
		return o, badValue("model", o.model, validModels)
	case !slices.Contains(validScales, o.scale):
		return o, badValue("scale", o.scale, validScales)
	case !slices.Contains(validEstimators, o.estName):
		return o, badValue("estimator", o.estName, validEstimators)
	}
	var err error
	if o.demux, err = rlir.ParseDemuxStrategy(*demux); err != nil {
		return o, fmt.Errorf("-demux %q: %w", *demux, err)
	}
	if o.staticN < 0 {
		return o, fmt.Errorf("-n %d < 0", o.staticN)
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

// The pick* switches are exhaustive over their valid* lists; the panic
// defaults catch a list updated without its switch (parseArgs would
// otherwise let the new value silently run the old default).
func pickScale(o options) rlir.Scale {
	switch o.scale {
	case "small":
		return rlir.SmallScale()
	case "default":
		return rlir.DefaultScale()
	case "full":
		return rlir.FullScale()
	default:
		panic("rlirsim: -scale " + o.scale + " validated but not dispatched")
	}
}

func pickScheme(o options) rlir.InjectionScheme {
	switch o.scheme {
	case "static":
		return rlir.Static{N: o.staticN}
	case "adaptive":
		return rlir.DefaultAdaptive()
	case "none":
		return nil
	default:
		panic("rlirsim: -scheme " + o.scheme + " validated but not dispatched")
	}
}

func pickEstimator(o options) core.Estimator {
	switch o.estName {
	case "linear":
		return rlir.Linear
	case "left":
		return rlir.LeftRef
	case "right":
		return rlir.RightRef
	case "nearest":
		return rlir.Nearest
	default:
		panic("rlirsim: -estimator " + o.estName + " validated but not dispatched")
	}
}

func runTandem(o options, out io.Writer) error {
	sc := pickScale(o)
	sc.Seed = o.seed
	if o.duration > 0 {
		sc.Duration = o.duration
	}
	cfg := rlir.TandemConfig{
		Scale:        sc,
		Scheme:       pickScheme(o),
		AdaptiveLive: o.scheme == "adaptive",
		TargetUtil:   o.util,
		Estimator:    pickEstimator(o),
	}
	switch o.model {
	case "random":
		cfg.Model = rlir.CrossUniform
	case "bursty":
		cfg.Model = rlir.CrossBursty
	case "none":
		cfg.Model = rlir.CrossNone
	default:
		panic("rlirsim: -model " + o.model + " validated but not dispatched")
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
	cfg := rlir.DefaultFatTreeConfig()
	cfg.K = o.k
	cfg.Seed = o.seed
	if o.duration > 0 {
		cfg.Duration = o.duration
	}
	cfg.Scheme = pickScheme(o)
	cfg.Strategy = o.demux

	res := rlir.RunFatTree(cfg)
	fmt.Fprintf(out, "fat-tree k=%d, demux=%s, injected=%d packets\n", o.k, cfg.Strategy, res.Injected)
	fmt.Fprintf(out, "downstream (core->ToR): %s\n", res.Downstream)
	fmt.Fprintf(out, "upstream   (ToR->core): %s\n", res.Upstream)
	fmt.Fprintf(out, "misattribution: %.4f\n", res.Misattribution)
	return nil
}
