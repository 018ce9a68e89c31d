package topo

import (
	"testing"
	"testing/quick"
)

func TestPlacementPaperFormulas(t *testing.T) {
	// Spot-check the paper's closed forms at k=4 (the Figure 1 topology).
	pl := Placement{K: 4}
	if got := pl.PairOfInterfaces(); got != 6 {
		t.Errorf("PairOfInterfaces(4) = %d, want 6 (k+2)", got)
	}
	if got := pl.PairOfToRs(); got != 12 {
		t.Errorf("PairOfToRs(4) = %d, want 12 (k(k+2)/2)", got)
	}
	if got := pl.AllToRPairs(); got != 20 {
		t.Errorf("AllToRPairs(4) = %d, want 20 ((k/2)^2(k+1))", got)
	}
	// Full: (5/4)k^3(k-1) = (5/4)*64*3 = 240.
	if got := pl.FullDeployment(); got != 240 {
		t.Errorf("FullDeployment(4) = %d, want 240", got)
	}
}

func TestPlacementFigure1Narrative(t *testing.T) {
	// The paper's running example: "we can divide the path between T1 and
	// T7 into segments ... which will reduce the number of upgraded routers
	// from 5 to 3". For one ToR-interface pair in a k=4 tree, RLIR touches
	// 2 ToRs + 2 cores = 4 routers vs 5 on the full path (T1,E,C,E,T7 —
	// wait: RLIR upgrades T1, T7 and the k/2 = 2 cores, while full
	// deployment upgrades every router on every path). The instance count
	// k+2 = 6 covers 2 per core + 1 per ToR.
	pl := Placement{K: 4}
	if pl.PairOfInterfaces() != 2*2+2 {
		t.Fatal("instance accounting drifted from §3.1")
	}
}

func TestPlacementMonotoneAndOrdered(t *testing.T) {
	f := func(raw uint8) bool {
		k := int(raw%60)*2 + 4 // even, 4..122
		pl := Placement{K: k}
		// Strategies are ordered by coverage, so by cost.
		return pl.PairOfInterfaces() < pl.PairOfToRs() &&
			pl.PairOfToRs() < pl.AllToRPairs() &&
			pl.AllToRPairs() < pl.FullDeployment() &&
			pl.Reduction() > 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementGrowthOrders(t *testing.T) {
	// PairOfInterfaces is Θ(k): doubling k roughly doubles it.
	// AllToRPairs is Θ(k³); FullDeployment Θ(k⁴).
	a, b := Placement{K: 16}, Placement{K: 32}
	if r := float64(b.PairOfInterfaces()) / float64(a.PairOfInterfaces()); r < 1.8 || r > 2.2 {
		t.Errorf("pair-of-interfaces growth %v, want ~2", r)
	}
	if r := float64(b.AllToRPairs()) / float64(a.AllToRPairs()); r < 7 || r > 9 {
		t.Errorf("all-ToR-pairs growth %v, want ~8", r)
	}
	if r := float64(b.FullDeployment()) / float64(a.FullDeployment()); r < 14 || r > 18 {
		t.Errorf("full-deployment growth %v, want ~16", r)
	}
}

func TestPlacementValidate(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if err := (Placement{K: k}).Validate(); err == nil {
			t.Errorf("K=%d should fail", k)
		}
	}
	if err := (Placement{K: 48}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	rows, err := Table([]int{4, 8, 16, 32, 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[4].K != 48 || rows[4].FullDeployment != (Placement{K: 48}).FullDeployment() {
		t.Fatalf("rows = %+v", rows)
	}
	if _, err := Table([]int{5}); err == nil {
		t.Fatal("odd k should fail")
	}
}

func TestCountSwitchesMatchesBuiltTopology(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.K = k
		_, ft := build(t, cfg)
		tors, aggs, cores := CountSwitches(k)
		gotCores := 0
		for _, g := range ft.Cores {
			gotCores += len(g)
		}
		gotTors, gotAggs := 0, 0
		for p := 0; p < k; p++ {
			gotTors += len(ft.ToRs[p])
			gotAggs += len(ft.Aggs[p])
		}
		if gotTors != tors || gotAggs != aggs || gotCores != cores {
			t.Fatalf("k=%d: built %d/%d/%d, formulas %d/%d/%d",
				k, gotTors, gotAggs, gotCores, tors, aggs, cores)
		}
	}
}

// TestFullDeploymentAgainstBruteForce recomputes the full-deployment count
// by enumerating the built fat-tree's switches and their interface pairs.
func TestFullDeploymentAgainstBruteForce(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.K = k
		_, ft := build(t, cfg)
		brute := 0
		countSwitch := func(ports int) { brute += ports * (ports - 1) }
		for _, g := range ft.Cores {
			for _, c := range g {
				countSwitch(len(c.Ports()))
			}
		}
		for p := 0; p < k; p++ {
			for _, a := range ft.Aggs[p] {
				countSwitch(len(a.Ports()))
			}
			for _, e := range ft.ToRs[p] {
				countSwitch(len(e.Ports()))
			}
		}
		if got := (Placement{K: k}).FullDeployment(); got != brute {
			t.Fatalf("k=%d: formula %d, brute force %d", k, got, brute)
		}
	}
}
