package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
)

// smallFT shrinks the fat-tree run for CI.
func smallFT() scenario.Spec {
	spec := DefaultFatTreeSpec()
	spec.Duration = 120 * time.Millisecond
	return spec
}

func runFT(t *testing.T, spec scenario.Spec) *scenario.Result {
	t.Helper()
	r, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunFatTreeReverseECMP(t *testing.T) {
	r := runFT(t, smallFT())
	if r.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if r.Overall.Flows < 10 {
		t.Fatalf("downstream flows = %d", r.Overall.Flows)
	}
	// Reverse ECMP with vendor-revealed hashes is exact: zero
	// misattribution.
	if r.Misattribution != 0 {
		t.Fatalf("reverse-ECMP misattribution = %.4f, want 0", r.Misattribution)
	}
	if r.Upstream.Flows == 0 {
		t.Fatal("upstream receivers saw no flows")
	}
}

func TestRunFatTreeMarking(t *testing.T) {
	spec := smallFT()
	spec.Deploy.Demux = scenario.DemuxMark
	r := runFT(t, spec)
	if r.Misattribution != 0 {
		t.Fatalf("marking misattribution = %.4f, want 0", r.Misattribution)
	}
	if r.Overall.Flows == 0 {
		t.Fatal("no flows measured")
	}
}

func TestAblationDemuxShape(t *testing.T) {
	results, err := AblationDemux(smallFT())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byStrategy := map[string]*scenario.Result{}
	for _, r := range results {
		byStrategy[r.Spec.Deploy.Demux] = r
	}
	none := byStrategy[scenario.DemuxNone]
	oracleR := byStrategy[scenario.DemuxOracle]
	recmp := byStrategy[scenario.DemuxReverseECMP]

	// The no-demux baseline misattributes most packets (3 of 4 cores are
	// wrong in a k=4 tree) — the paper's "totally wrong".
	if none.Misattribution < 0.4 {
		t.Errorf("no-demux misattribution = %.3f, expected large", none.Misattribution)
	}
	// All real strategies match ground truth exactly.
	for _, name := range []string{"oracle", "reverse-ecmp", "marking"} {
		if r := byStrategy[name]; r == nil || r.Misattribution != 0 {
			t.Errorf("%s: run %v, want one with misattribution 0", name, r)
		}
	}
	// And their accuracy must match the oracle's, while no-demux is worse.
	if recmp.Overall.MedianRelErr > oracleR.Overall.MedianRelErr*1.05+1e-9 {
		t.Errorf("reverse-ecmp median %.4f should match oracle %.4f",
			recmp.Overall.MedianRelErr, oracleR.Overall.MedianRelErr)
	}
	if none.Overall.MedianRelErr <= oracleR.Overall.MedianRelErr {
		t.Errorf("no-demux median %.4f should exceed oracle %.4f",
			none.Overall.MedianRelErr, oracleR.Overall.MedianRelErr)
	}
	// The A1 vocabulary is the spec's: the rendered rows carry the four names
	// the -demux flag takes.
	out := results.Table().Render()
	for _, name := range []string{"oracle", "reverse-ecmp", "marking", "none"} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Fatalf("render has no %q row:\n%s", name, out)
		}
	}
}

// TestAblationDemuxRejectsInvalidSpec: a caller's bad spec is an error, not
// a panic.
func TestAblationDemuxRejectsInvalidSpec(t *testing.T) {
	spec := smallFT()
	spec.Topology.K = 3
	if _, err := AblationDemux(spec); err == nil {
		t.Fatal("AblationDemux accepted K=3")
	}
}

func TestFatTreeDeterminism(t *testing.T) {
	a, b := runFT(t, smallFT()), runFT(t, smallFT())
	if a.Overall.MedianRelErr != b.Overall.MedianRelErr || a.Injected != b.Injected {
		t.Fatal("fat-tree run not deterministic")
	}
}
