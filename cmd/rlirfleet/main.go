// Command rlirfleet fronts a partitioned rlird fleet with one merged query
// API. Point it at the query addresses of N rlird instances that each ingest
// a flow-disjoint share of the export stream (cmd/loadgen's comma-separated
// -addr does that partitioning) and it serves the same endpoints a single
// rlird would:
//
//	/flows       merged per-flow aggregate table (sorted; ?limit=N)
//	/routers     per-exporter rows, annotated with the owning instance
//	/comparison  estimate-vs-truth scoring over the merged table
//	/healthz     fleet liveness: ok, degraded, or down
//	/metrics     Prometheus text exposition (rlirfleet_* series)
//
// The merge is exact, not approximate: /flows and /comparison are computed
// from the instances' raw accumulator state, so a fleet-of-N response is
// field-for-field what one rlird holding the whole stream would serve.
// Instances that fail to answer within -timeout are skipped and the fleet
// reports degraded; only a fully-unreachable fleet turns queries into 502s.
// SIGINT/SIGTERM shut the front-end down gracefully.
//
// Usage:
//
//	rlirfleet -endpoints http://127.0.0.1:7172,http://127.0.0.1:7372
//	rlirfleet -endpoints http://10.0.0.1:7172 -listen 127.0.0.1:7272 -timeout 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/queryapi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rlirfleet:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	endpoints []string
	listen    string
	timeout   time.Duration
}

// parseArgs parses and validates the command line. Split from run so tests
// can exercise the flag surface without binding sockets.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("rlirfleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	endpoints := fs.String("endpoints", "", "comma-separated rlird query-API base URLs (e.g. http://127.0.0.1:7172,http://127.0.0.1:7372)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7272", "HTTP address the merged query API serves on")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-query fan-out budget shared by all instance requests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *endpoints == "" {
		return o, errors.New("no instances: -endpoints needs at least one rlird base URL")
	}
	seen := map[string]bool{}
	for _, ep := range strings.Split(*endpoints, ",") {
		if ep == "" {
			return o, fmt.Errorf("-endpoints %q has an empty entry", *endpoints)
		}
		if seen[ep] {
			return o, fmt.Errorf("-endpoints lists %q twice", ep)
		}
		seen[ep] = true
		o.endpoints = append(o.endpoints, ep)
	}
	if o.listen == "" {
		return o, errors.New("-listen must not be empty")
	}
	if o.timeout <= 0 {
		return o, fmt.Errorf("-timeout %v <= 0", o.timeout)
	}
	return o, nil
}

// run builds the front-end, serves it, and blocks until a shutdown signal.
// ready (may be nil) receives the bound address once the server is listening
// — the test hook standing in for "the process printed its address".
func run(args []string, out io.Writer, ready chan<- net.Addr) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	front, err := rlir.NewFleetFrontend(rlir.FleetFrontendConfig{
		Instances: o.endpoints,
		Timeout:   o.timeout,
	})
	if err != nil {
		return err
	}

	// Install the shutdown handler before the address is announced, so a
	// supervisor that signals as soon as it sees the address never races
	// the handler registration.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	srv := queryapi.NewServer(front.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(out, "rlirfleet: merged query API on http://%s (fleet of %d)\n", ln.Addr(), front.Instances())
	for i, ep := range o.endpoints {
		fmt.Fprintf(out, "rlirfleet:   instance %d: %s\n", i, ep)
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case got := <-sig:
		fmt.Fprintf(out, "rlirfleet: %v, shutting down...\n", got)
	case err := <-serveErr:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
