package scenario

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRunMultiDetectionFold pins the adversarial-detection sub-table of a
// sweep: the verdict folds as a 0/1 column, so each mechanism's "detected"
// mean is exactly the fraction of seeds whose per-seed report detected, over
// all seeds; exposure folds as an ordinary metric.
func TestRunMultiDetectionFold(t *testing.T) {
	sc, ok := Get("adversarial-delay")
	if !ok {
		t.Fatal("adversarial-delay not registered")
	}
	spec := sc.Spec
	spec.Duration = 100 * time.Millisecond
	spec.Adversary.End = spec.Duration
	const seeds = 3
	mr, err := RunMulti(spec, MultiOpts{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Detection.N != seeds || len(mr.Detection.Rows) != len(mr.PerSeed[0].Detection.Rows) {
		t.Fatalf("detection fold has N=%d, %d rows; want N=%d, %d rows",
			mr.Detection.N, len(mr.Detection.Rows), seeds, len(mr.PerSeed[0].Detection.Rows))
	}
	fractions := map[float64]bool{}
	for i, row := range mr.PerSeed[0].Detection.Rows {
		hits := 0
		for _, r := range mr.PerSeed {
			if r.Detection.Rows[i].Detected {
				hits++
			}
		}
		detected, ok := mr.Detection.Cell(row.Estimator, "detected")
		if !ok {
			t.Fatalf("detection table has no (%s, detected) cell", row.Estimator)
		}
		// The fold's running mean may sit an ulp off hits/seeds.
		if want := float64(hits) / seeds; math.Abs(detected.Mean-want) > 1e-12 || detected.N != seeds {
			t.Errorf("%s: detected = %+v, want mean %v over %d seeds", row.Estimator, detected, want, seeds)
		}
		fractions[float64(hits)/seeds] = true
		if exposure, _ := mr.Detection.Cell(row.Estimator, "exposure"); exposure.N != seeds {
			t.Errorf("%s: exposure folded %d seeds, want %d", row.Estimator, exposure.N, seeds)
		}
	}
	// The scenario's point: the keyed sampler always detects, the
	// predictable mechanisms never do — both ends of the column occur.
	if !fractions[0] || !fractions[1] {
		t.Errorf("detected fractions %v; want both 0 and 1 among the mechanisms", fractions)
	}
	if out := mr.Render(); !strings.Contains(out, "adversarial delay detection") || !strings.Contains(out, "over 3 seeds") {
		t.Errorf("sweep render omits the detection table:\n%s", out)
	}
}
