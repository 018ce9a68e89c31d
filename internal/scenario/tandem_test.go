package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// smallTandem is the CI-sized Figure-3 spec, cut to 200 ms and RLI only.
func smallTandem(t *testing.T) Spec {
	t.Helper()
	s, err := TandemSpec("small")
	if err != nil {
		t.Fatal(err)
	}
	s.Duration = 200 * time.Millisecond
	return s
}

// TestRenderShowsCountersAndFlows pins what Render prints beyond the
// headline: the summed sender/receiver counters and first per-flow rows on
// every topology, the error CDF, the bottleneck loss rate on a tandem and
// the upstream summary on a fat-tree.
func TestRenderShowsCountersAndFlows(t *testing.T) {
	tandem := smallTandem(t)
	fattree := quickSpec()
	fattree.Duration = 20 * time.Millisecond
	for _, tc := range []struct {
		spec      Spec
		want, not string
	}{
		{tandem, "regular loss rate: ", "upstream:"},
		{fattree, "upstream:   flows=", "regular loss rate"},
	} {
		r, err := Run(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		out := r.Render()
		for _, want := range []string{
			tc.want,
			"downstream: " + r.Overall.String() + "\n",
			fmt.Sprintf("receiver: %+v\n", r.Receiver),
			fmt.Sprintf("sender:   %+v\n", r.Sender),
			fmt.Sprintf("... %d more\n", len(r.Results)-renderFlows),
			fmt.Sprintf("relative error (mean estimates) n=%d ", len(r.Results)),
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: render lacks %q:\n%s", tc.spec.Name, want, out)
			}
		}
		if strings.Contains(out, tc.not) || r.Sender.Injected == 0 {
			t.Fatalf("%s: render shows %q or no references were injected:\n%s", tc.spec.Name, tc.not, out)
		}
	}
}

// TestTandemAdaptiveReadsItsLink pins that a tandem spec's adaptive sender
// is driven by a live meter on its own link: at 80% load it backs off to a
// wide gap and injects fewer references than at the paper's 22%, though it
// sees ~3.6x the packets. An unmetered sender reads zero utilization and
// stays at MinGap, injecting more.
func TestTandemAdaptiveReadsItsLink(t *testing.T) {
	injected := func(load float64) uint64 {
		s := smallTandem(t)
		s.Deploy.Scheme = SchemeAdaptive
		s.Workload.CrossModel = CrossNone
		s.Workload.LoadFrac = load
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Sender.Injected
	}
	light, heavy := injected(0.22), injected(0.8)
	if light == 0 || heavy >= light {
		t.Fatalf("adaptive sender injected %d references at 22%% load and %d at 80%%; want fewer at 80%%", light, heavy)
	}
}

// TestTandemReadsTopologyDelays pins that the tandem harness builds its hops
// from the spec's propagation and processing delays (zero keeps the 1 µs and
// 500 ns defaults): both sit inside the measured segment, so raising either
// raises the true mean delay.
func TestTandemReadsTopologyDelays(t *testing.T) {
	trueMean := func(mut func(*TopologySpec)) time.Duration {
		s := smallTandem(t)
		mut(&s.Topology)
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Overall.TrueMeanDelay
	}
	base := trueMean(func(*TopologySpec) {})
	explicit := trueMean(func(tp *TopologySpec) { tp.Propagation, tp.ProcDelay = time.Microsecond, 500*time.Nanosecond })
	if explicit != base {
		t.Fatalf("explicit default delays give true mean %v, zero values %v", explicit, base)
	}
	if got := trueMean(func(tp *TopologySpec) { tp.ProcDelay = 5 * time.Microsecond }); got <= base {
		t.Errorf("proc_delay_ns 5000: true mean %v, default %v", got, base)
	}
	if got := trueMean(func(tp *TopologySpec) { tp.Propagation = 10 * time.Microsecond }); got <= base {
		t.Errorf("propagation_ns 10000: true mean %v, default %v", got, base)
	}
}
