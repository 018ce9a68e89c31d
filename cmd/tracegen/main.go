// Command tracegen generates the synthetic workloads that stand in for the
// paper's CAIDA OC-192 traces and prints their summary (packets, flows,
// mean rate) — the workload itself is regenerated in-process by every
// simulation, so no packet file is written.
//
// Usage:
//
//	tracegen -duration 2s -rate 220e6
//	tracegen -seed 2 -src 172.16.0.0/16
//
// It also emits recorded-link stand-ins — per-link delay/loss time series
// the scenario engine replays via -link-trace (trace.GenLinkTrace):
//
//	tracegen -emit link -o link.json -duration 200ms -link-step 25ms
//	tracegen -emit link -o link.csv -link-format csv -link-max-loss 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	out      string
	duration time.Duration
	bps      float64
	seed     int64
	src, dst string
	alpha    float64
	maxFlow  int

	emit          string
	linkFormat    string
	linkStep      time.Duration
	linkBaseDelay time.Duration
	linkMaxExtra  time.Duration
	linkMaxLoss   float64
}

// parseArgs parses and validates the command line. Split from run so tests
// can exercise the flag surface without generating traces.
func parseArgs(args []string) (options, error) {
	var o options
	var rate string
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.out, "o", "", "output file for -emit link (empty: stdout)")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "trace duration")
	fs.StringVar(&rate, "rate", "220e6", "target offered load, bits/second")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	fs.StringVar(&o.src, "src", "10.1.0.0/16", "source address pool")
	fs.StringVar(&o.dst, "dst", "10.200.0.0/16", "destination address pool")
	fs.Float64Var(&o.alpha, "alpha", 1.15, "flow length tail index")
	fs.IntVar(&o.maxFlow, "maxflow", 20000, "max packets per flow")
	fs.StringVar(&o.emit, "emit", "packet", "what to generate: packet | link")
	fs.StringVar(&o.linkFormat, "link-format", "json", "link trace encoding for -emit link: json | csv")
	fs.DurationVar(&o.linkStep, "link-step", 10*time.Millisecond, "row spacing for -emit link")
	fs.DurationVar(&o.linkBaseDelay, "link-base-delay", 20*time.Microsecond, "delay floor for -emit link rows")
	fs.DurationVar(&o.linkMaxExtra, "link-max-extra", 400*time.Microsecond, "random delay excursion bound for -emit link")
	fs.Float64Var(&o.linkMaxLoss, "link-max-loss", 0.02, "loss probability bound for -emit link rows")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.emit != "packet" && o.emit != "link" {
		return o, fmt.Errorf("unknown -emit %q (valid: packet, link)", o.emit)
	}
	if o.linkFormat != "json" && o.linkFormat != "csv" {
		return o, fmt.Errorf("unknown -link-format %q (valid: json, csv)", o.linkFormat)
	}
	if o.emit == "packet" && o.out != "" {
		return o, fmt.Errorf("-o applies to -emit link: a packet workload is summarised on stdout, not written")
	}
	bps, err := strconv.ParseFloat(rate, 64)
	if err != nil {
		return o, fmt.Errorf("invalid -rate: %v", err)
	}
	o.bps = bps
	return o, nil
}

// config builds the generator config.
func (o options) config() (trace.Config, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Duration = o.duration
	cfg.TargetBps = o.bps
	src, err := packet.ParsePrefix(o.src)
	if err != nil {
		return cfg, fmt.Errorf("invalid -src: %v", err)
	}
	dst, err := packet.ParsePrefix(o.dst)
	if err != nil {
		return cfg, fmt.Errorf("invalid -dst: %v", err)
	}
	cfg.SrcPrefix = src
	cfg.DstPrefix = dst
	cfg.FlowLen.Alpha = o.alpha
	cfg.FlowLen.Max = o.maxFlow
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.emit == "link" {
		return emitLink(o, out)
	}
	cfg, err := o.config()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, trace.Summarize(trace.NewGenerator(cfg)))
	return nil
}

// emitLink generates one deterministic link trace (delay/loss time series)
// and writes it in the requested encoding — to -o, or to stdout without -o.
func emitLink(o options, out io.Writer) error {
	lt, err := trace.GenLinkTrace(trace.LinkTraceConfig{
		Seed:      o.seed,
		Duration:  o.duration,
		Step:      o.linkStep,
		BaseDelay: o.linkBaseDelay,
		MaxExtra:  o.linkMaxExtra,
		MaxLoss:   o.linkMaxLoss,
	})
	if err != nil {
		return err
	}
	var data []byte
	if o.linkFormat == "json" {
		if data, err = lt.EncodeJSON(); err != nil {
			return err
		}
		data = append(data, '\n')
	} else {
		data = lt.EncodeCSV()
	}
	if o.out == "" {
		_, err := out.Write(data)
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d link samples to %s\n", len(lt.Samples), o.out)
	return nil
}
