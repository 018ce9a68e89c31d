package experiments

import (
	"strings"
	"testing"
	"time"
)

// smallFT shrinks the fat-tree run for CI.
func smallFT() FatTreeConfig {
	cfg := DefaultFatTreeConfig()
	cfg.Duration = 120 * time.Millisecond
	return cfg
}

func TestRunFatTreeReverseECMP(t *testing.T) {
	r := RunFatTree(smallFT())
	if r.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if r.Downstream.Flows < 10 {
		t.Fatalf("downstream flows = %d", r.Downstream.Flows)
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
	cfg := smallFT()
	cfg.Strategy = DemuxMark
	r := RunFatTree(cfg)
	if r.Misattribution != 0 {
		t.Fatalf("marking misattribution = %.4f, want 0", r.Misattribution)
	}
	if r.Downstream.Flows == 0 {
		t.Fatal("no flows measured")
	}
}

func TestAblationDemuxShape(t *testing.T) {
	results := AblationDemux(smallFT())
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byStrategy := map[DemuxStrategy]FatTreeResult{}
	for _, r := range results {
		byStrategy[r.Config.Strategy] = r
	}
	none := byStrategy[DemuxNone]
	oracleR := byStrategy[DemuxOracle]
	recmp := byStrategy[DemuxReverseECMP]
	mark := byStrategy[DemuxMark]

	// The no-demux baseline misattributes most packets (3 of 4 cores are
	// wrong in a k=4 tree) — the paper's "totally wrong".
	if none.Misattribution < 0.4 {
		t.Errorf("no-demux misattribution = %.3f, expected large", none.Misattribution)
	}
	// All real strategies match ground truth exactly.
	for name, r := range map[string]FatTreeResult{"oracle": oracleR, "reverse-ecmp": recmp, "marking": mark} {
		if r.Misattribution != 0 {
			t.Errorf("%s misattribution = %.4f, want 0", name, r.Misattribution)
		}
	}
	// And their accuracy must match the oracle's, while no-demux is worse.
	if recmp.Downstream.MedianRelErr > oracleR.Downstream.MedianRelErr*1.05+1e-9 {
		t.Errorf("reverse-ecmp median %.4f should match oracle %.4f",
			recmp.Downstream.MedianRelErr, oracleR.Downstream.MedianRelErr)
	}
	if none.Downstream.MedianRelErr <= oracleR.Downstream.MedianRelErr {
		t.Errorf("no-demux median %.4f should exceed oracle %.4f",
			none.Downstream.MedianRelErr, oracleR.Downstream.MedianRelErr)
	}
	out := results.Render()
	if !strings.Contains(out, "reverse-ecmp") {
		t.Fatal("render missing strategies")
	}
}

func TestFatTreeDeterminism(t *testing.T) {
	a, b := RunFatTree(smallFT()), RunFatTree(smallFT())
	if a.Downstream.MedianRelErr != b.Downstream.MedianRelErr || a.Injected != b.Injected {
		t.Fatal("fat-tree run not deterministic")
	}
}

func TestDemuxStrategyString(t *testing.T) {
	for _, s := range []DemuxStrategy{DemuxNone, DemuxMark, DemuxReverseECMP, DemuxOracle, DemuxStrategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}
