// Command rlird is the long-lived measurement service: it listens for
// collector wire frames (per-packet latency samples and NetFlow records)
// on TCP and/or Unix sockets, drains them through the sharded collector
// plane with bounded-queue backpressure, and serves rolling per-flow and
// per-router aggregates over an HTTP API:
//
//	/flows       per-flow aggregate table (sorted; ?limit=N)
//	/routers     per-exporter aggregates (hello-frame identity)
//	/comparison  streaming estimate-vs-truth scoring (in-band ground truth)
//	/rollup      aggregation tiers below the flow table (classes, router)
//	/healthz     liveness, totals, rolling ingest rate
//	/metrics     Prometheus text exposition
//
// With -max-flows and/or -flow-window set the flow table is memory-bounded:
// least-recently-seen flows fold into per-class and per-router rollup
// sketches instead of growing the table, so a million-flow churn holds a
// flat footprint while /rollup keeps the evicted tail queryable.
//
// Configuration comes from flags, or a JSON file (-config) that flags
// override. SIGINT/SIGTERM shut the service down gracefully: listeners
// close first, streaming connections get the drain window, and the final
// flow table stays queryable until the process exits.
//
// Usage:
//
//	rlird -listen 127.0.0.1:7171 -http 127.0.0.1:7172
//	rlird -unix /tmp/rlird.sock -http 127.0.0.1:7172 -shards 8
//	rlird -config rlird.json -check-config
//
// Drive it with cmd/loadgen, which replays captured scenario traffic at a
// configurable rate over concurrent connections.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	rlir "github.com/netmeasure/rlir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rlird:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	cfg         rlir.ServiceConfig
	checkConfig bool
}

// parseArgs parses flags into a service config, loading -config first so
// explicitly set flags override the file. Split from run so tests can
// exercise the flag surface without binding sockets.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("rlird", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	configPath := fs.String("config", "", "JSON config file (flags override its fields)")
	listen := fs.String("listen", "127.0.0.1:7171", "TCP ingest address (empty disables)")
	unix := fs.String("unix", "", "Unix-socket ingest path (empty disables)")
	httpAddr := fs.String("http", "127.0.0.1:7172", "HTTP query API address (empty disables)")
	shards := fs.Int("shards", 0, "collector shards (0 = GOMAXPROCS, capped at 8)")
	depth := fs.Int("depth", 0, "per-shard queue depth in batches (0 = default 16)")
	maxRecords := fs.Int("max-frame-records", 0, "per-frame record bound (0 = codec default)")
	window := fs.Duration("window", 0, "rolling ingest-rate window (0 = default 10s)")
	drain := fs.Duration("drain", 0, "graceful-shutdown drain window (0 = default 5s)")
	maxFlows := fs.Int("max-flows", 0, "per-router live flow cap; LRU flows fold into the rollup (0 = unbounded)")
	flowWindow := fs.Duration("flow-window", 0, "idle time before a flow expires into the rollup (0 = never)")
	maxClasses := fs.Int("max-classes", 0, "rollup flow-class cap; overflow folds into the router tier (0 = default)")
	fs.BoolVar(&o.checkConfig, "check-config", false, "print the effective config as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *configPath != "" {
		cfg, err := rlir.LoadServiceConfig(*configPath)
		if err != nil {
			return o, err
		}
		o.cfg = cfg
	}
	// Flags the user actually set override the file; defaults apply only
	// when neither file nor flag speaks.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["listen"] || *configPath == "" {
		o.cfg.Listen = *listen
	}
	if set["unix"] {
		o.cfg.Unix = *unix
	}
	if set["http"] || *configPath == "" {
		o.cfg.HTTP = *httpAddr
	}
	if set["shards"] {
		o.cfg.Shards = *shards
	}
	if set["depth"] {
		o.cfg.Depth = *depth
	}
	if set["max-frame-records"] {
		o.cfg.MaxFrameRecords = *maxRecords
	}
	if set["window"] {
		o.cfg.Window = *window
	}
	if set["drain"] {
		o.cfg.DrainTimeout = *drain
	}
	if set["max-flows"] {
		o.cfg.MaxFlows = *maxFlows
	}
	if set["flow-window"] {
		o.cfg.FlowWindow = *flowWindow
	}
	if set["max-classes"] {
		o.cfg.MaxClasses = *maxClasses
	}
	if o.cfg.Listen == "" && o.cfg.Unix == "" {
		return o, fmt.Errorf("no ingest listener: set -listen and/or -unix")
	}
	return o, o.cfg.Validate()
}

// run starts the service and blocks until a shutdown signal. ready (may be
// nil) receives the server once it is listening — the test hook standing in
// for "the process printed its addresses".
func run(args []string, out io.Writer, ready chan<- *rlir.MeasurementService) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.checkConfig {
		data, err := json.MarshalIndent(o.cfg, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}

	s, err := rlir.NewMeasurementService(o.cfg)
	if err != nil {
		return err
	}
	if a := s.Addr(); a != nil {
		fmt.Fprintf(out, "rlird: ingest listening on tcp %s\n", a)
	}
	if o.cfg.Unix != "" {
		fmt.Fprintf(out, "rlird: ingest listening on unix %s\n", o.cfg.Unix)
	}
	if a := s.HTTPAddr(); a != nil {
		fmt.Fprintf(out, "rlird: query API on http://%s\n", a)
	}
	if ready != nil {
		ready <- s
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(out, "rlird: %v, draining...\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "rlird: %v\n", err)
	}
	snap := s.Snapshot()
	var samples int64
	for i := range snap {
		samples += snap[i].Est.N()
	}
	fmt.Fprintf(out, "rlird: final state %d flows, %d samples\n", len(snap), samples)
	return nil
}
