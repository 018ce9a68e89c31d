package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
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
			fmt.Sprintf("note: %d more flows\n", len(r.Results)-renderFlows),
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

// TestRenderAlignsLongNames pins the one table renderer's column alignment
// on a run whose router row label, "sw2 (sw1-egress->bottleneck)", is far
// longer than any fixed-width column the reports once used: every cell of
// every row starts where its header does.
func TestRenderAlignsLongNames(t *testing.T) {
	r, err := Run(smallTandem(t))
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	lines := tableLines(t, out, "routers")
	if len(lines) < 2 || !strings.Contains(lines[1], "sw1-egress->bottleneck") {
		t.Fatalf("routers table:\n%s", out)
	}
	checkAligned(t, lines)
	checkAligned(t, tableLines(t, out, "per-flow results"))
}

// tableLines returns the header and row lines of the rendered table titled
// title.
func tableLines(t *testing.T, out, title string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "== "+title+" ==\n")
	if !ok {
		t.Fatalf("no %q table in:\n%s", title, out)
	}
	var lines []string
	for _, l := range strings.Split(rest, "\n") {
		if l == "" || strings.HasPrefix(l, "==") || strings.HasPrefix(l, "note: ") {
			break
		}
		lines = append(lines, l)
	}
	return lines
}

// checkAligned fails unless every line has a cell starting at each column
// start of the header (lines[0]), two or more spaces after the previous one.
func checkAligned(t *testing.T, lines []string) {
	t.Helper()
	header := []rune(lines[0])
	var starts []int
	for i := 2; i < len(header); i++ {
		if header[i] != ' ' && header[i-1] == ' ' && header[i-2] == ' ' {
			starts = append(starts, i)
		}
	}
	for _, l := range lines[1:] {
		row := []rune(l)
		for _, s := range starts {
			if s >= len(row) || row[s] == ' ' || row[s-1] != ' ' || row[s-2] != ' ' {
				t.Fatalf("row %q has no cell at rune %d (header %q)", l, s, lines[0])
			}
		}
	}
}

// TestComparisonTableRenders: the estimator comparison prints every field
// of measure.Comparison the report carries, and a metric a mechanism does
// not produce as n/a, never NaN.
func TestComparisonTableRenders(t *testing.T) {
	nan := math.NaN()
	r := &Result{Comparison: []measure.Comparison{
		{Estimator: "rli", Flows: 10, Samples: 100, MedianRelErr: 0.1, P99RelErr: 0.5, AggRelErr: 0.02, Misattribution: 0.25},
		{Estimator: "lda", MedianRelErr: nan, P99RelErr: nan, AggRelErr: 0.03, Overhead: measure.Overhead{SampledBytes: 8192}},
	}}
	out := r.ComparisonTable().Render()
	for _, want := range []string{"samples", "misattr", "smpBytes", "\nrli  ", "100", "0.2500", "\nlda  ", "n/a", "8192"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("comparison render prints NaN:\n%s", out)
	}
}

// TestTandemAdaptiveReadsItsLink pins that a tandem spec's adaptive sender
// is driven by a live meter on its own link: at 80% load it backs off to a
// wide gap and injects fewer references than at the paper's 22%, though it
// sees ~3.6x the packets. An unmetered sender reads zero utilization and
// stays at MinGap, injecting more. The meter schedules nothing, so each run
// drains to an empty queue (Run returns) once the last packet has left.
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
