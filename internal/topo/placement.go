package topo

import "fmt"

// Placement computes the §3.1 deployment-complexity figures for a k-ary
// fat-tree: how many RLI measurement instances each strategy needs. Each
// instance plays the dual sender+receiver role, as the paper assumes.
type Placement struct {
	K int
}

// Validate checks the arity.
func (pl Placement) Validate() error {
	if pl.K < 2 || pl.K%2 != 0 {
		return fmt.Errorf("topo: placement K must be even and >= 2, got %d", pl.K)
	}
	return nil
}

// PairOfInterfaces is the RLIR cost of monitoring one (ToR interface, ToR
// interface) pair: two instances at each of the k/2 cores on the paths,
// plus one at each endpoint ToR — k + 2 (paper: "we need to install two
// measurement instances at k/2 core routers and an instance at each ToR
// switch").
func (pl Placement) PairOfInterfaces() int { return pl.K + 2 }

// PairOfToRs is the RLIR cost of monitoring every interface pair between
// two ToR switches: k²/2 at cores plus k at the ToRs — k(k+2)/2.
func (pl Placement) PairOfToRs() int { return pl.K * (pl.K + 2) / 2 }

// AllToRPairs is the RLIR cost of per-flow latency between every pair of
// ToR switches: (k/2)²k instances across all core routers plus k/2 per ToR
// across the k²/2 ToRs... totalling (k/2)²(k+1) (paper formula).
func (pl Placement) AllToRPairs() int {
	h := pl.K / 2
	return h * h * (pl.K + 1)
}

// FullDeployment is the instance count for upgrading every router: two
// instances per interface pair in each pod switch and each core —
// k²·k(k-1) + (k/2)²·k(k-1) = (5/4)k³(k-1), the paper's O(k⁴).
func (pl Placement) FullDeployment() int {
	k := pl.K
	perPodSwitches := k * k * k * (k - 1) // k pods × k switches × k(k-1)
	h := k / 2
	cores := h * h * k * (k - 1)
	return perPodSwitches + cores
}

// Reduction returns full / partial for the all-ToR-pairs strategy: the
// deployment-cost factor RLIR saves.
func (pl Placement) Reduction() float64 {
	return float64(pl.FullDeployment()) / float64(pl.AllToRPairs())
}

// Row is one line of the placement table.
type Row struct {
	K                int
	PairOfInterfaces int
	PairOfToRs       int
	AllToRPairs      int
	FullDeployment   int
	Reduction        float64
}

// Table computes rows for each arity.
func Table(ks []int) ([]Row, error) {
	rows := make([]Row, 0, len(ks))
	for _, k := range ks {
		pl := Placement{K: k}
		if err := pl.Validate(); err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			K:                k,
			PairOfInterfaces: pl.PairOfInterfaces(),
			PairOfToRs:       pl.PairOfToRs(),
			AllToRPairs:      pl.AllToRPairs(),
			FullDeployment:   pl.FullDeployment(),
			Reduction:        pl.Reduction(),
		})
	}
	return rows, nil
}

// CountSwitches returns the switch counts of a k-ary fat-tree, used to
// cross-check the formulas against an actually built topology.
func CountSwitches(k int) (tors, aggs, cores int) {
	h := k / 2
	return k * h, k * h, h * h
}
