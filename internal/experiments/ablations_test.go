package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestAblationEstimators(t *testing.T) {
	rows := AblationEstimators(testBase(), 0.8)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]EstimatorRow{}
	for _, r := range rows {
		if r.Flows == 0 {
			t.Fatalf("%v measured no flows", r.Estimator)
		}
		byName[r.Estimator.String()] = r
	}
	// Linear interpolation should be at least as good as single-endpoint
	// estimators on median error (it uses strictly more information).
	lin := byName["linear"]
	for _, other := range []string{"left", "right"} {
		if lin.MedianRelErr > byName[other].MedianRelErr*1.25+1e-9 {
			t.Errorf("linear median %.4f should not lose badly to %s %.4f",
				lin.MedianRelErr, other, byName[other].MedianRelErr)
		}
	}
	if rows.Table().Render() == "" {
		t.Fatal("empty render")
	}
}

func TestAblationClocks(t *testing.T) {
	rows := AblationClocks(testBase(), 0.8)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	perfect := rows[0]
	offset100 := rows[3]
	// A 100µs receiver offset must hurt much more than perfect sync when
	// true delays are tens of µs.
	if offset100.MedianRelErr <= perfect.MedianRelErr {
		t.Errorf("offset=100µs median %.4f should exceed perfect %.4f",
			offset100.MedianRelErr, perfect.MedianRelErr)
	}
	out := rows.Table().Render()
	if !strings.Contains(out, "perfect") {
		t.Fatal("render missing clocks")
	}
}

func TestRunBaselines(t *testing.T) {
	// 93% utilization: RLI's intended operating regime, where delays are
	// large enough for millisecond NetFlow stamps to be useless.
	r := RunBaselines(testBase(), 0.93)
	if r.MultiflowFlows == 0 {
		t.Fatal("multiflow estimated no flows")
	}
	// RLIR's per-flow fidelity must beat the two-sample estimator.
	if r.RLIRMedian >= r.MultiflowMedian {
		t.Errorf("RLIR median %.4f should beat Multiflow %.4f", r.RLIRMedian, r.MultiflowMedian)
	}
	// LDA's aggregate estimate should be close to the true aggregate.
	if r.LDAMeanErr > 0.25 {
		t.Errorf("LDA aggregate error %.4f too high", r.LDAMeanErr)
	}
	if r.TrueAggregate <= 0 || r.LDAEstimate <= 0 {
		t.Fatalf("aggregates: lda=%v true=%v", r.LDAEstimate, r.TrueAggregate)
	}
	if r.RLIROverheadPkts == 0 {
		t.Fatal("RLIR injected no reference packets")
	}
	if r.Table().Render() == "" {
		t.Fatal("empty render")
	}
}

func TestBaselinesConsistentScale(t *testing.T) {
	// Guard: the baseline run must finish quickly at test scale.
	start := time.Now()
	RunBaselines(testBase(), 0.5)
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Fatalf("baseline run took %v", elapsed)
	}
}
