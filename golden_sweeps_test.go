package rlir_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/stats"
)

// TestGoldenSweeps pins every across-seed statistic the repository reports:
// each sweepable -fig target at SmallScale over 2 derived seeds, and the
// comparison / telemetry-loss / detection sub-tables of a multi-seed
// scenario run. Every cell is a stats.MetricCI compared bit for bit (Mean,
// CI95, Min, Max, N). The fixture in testdata/golden_sweeps.json was
// captured from the per-target Multi* harnesses that preceded the one
// across-seed fold, so it proves the fold computes what they computed.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test -run TestGoldenSweeps -update-golden .

// goldenCell is one (row, column) cell of an across-seed table.
type goldenCell struct {
	Row  string      `json:"row"`
	Col  string      `json:"col"`
	Mean goldenFloat `json:"mean"`
	CI95 goldenFloat `json:"ci95"`
	Min  goldenFloat `json:"min"`
	Max  goldenFloat `json:"max"`
	N    int         `json:"n"`
}

// goldenSweepTable is one across-seed table, cells in row-major order.
type goldenSweepTable struct {
	Name  string       `json:"name"`
	Cells []goldenCell `json:"cells"`
}

func cellOf(row, col string, m rlir.MetricCI) goldenCell {
	return goldenCell{Row: row, Col: col, Mean: gf(m.Mean), CI95: gf(m.CI95), Min: gf(m.Min), Max: gf(m.Max), N: m.N}
}

// fractionOf folds per-seed 0/1 outcomes the way a 0/1 table column folds.
func fractionOf(hits []bool) rlir.MetricCI {
	xs := make([]float64, len(hits))
	for i, h := range hits {
		if h {
			xs[i] = 1
		}
	}
	return stats.MetricOf(xs)
}

// goldenSweepSpecs are the multi-seed scenario runs the fixture pins: one
// with the full estimator comparison (LDA's per-flow cells fold to N = 0),
// one with telemetry loss, one with an adversary.
func goldenSweepSpecs(t *testing.T) []rlir.ScenarioSpec {
	t.Helper()
	cmp := rlir.DefaultScenarioSpec()
	cmp.Name = "comparison"
	cmp.Topology.LinkBps = 200e6
	cmp.Topology.QueueBytes = 96 << 10
	cmp.Duration = 40 * time.Millisecond
	specs := []rlir.ScenarioSpec{cmp}
	for _, name := range []string{"telemetry-loss", "adversarial-delay"} {
		sc, ok := rlir.ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		spec := sc.Spec
		spec.Deploy.Estimators = []string{"rli", "lda", "netflow-sample", "hash-sample", "periodic-sample"}
		specs = append(specs, spec)
	}
	return specs
}

func captureGoldenSweeps(t *testing.T) []goldenSweepTable {
	t.Helper()
	sc := rlir.SmallScale()
	opts := rlir.MultiOpts{Seeds: 2}
	var out []goldenSweepTable
	add := func(name string, cells ...goldenCell) {
		out = append(out, goldenSweepTable{Name: name, Cells: cells})
	}

	s := rlir.MultiScalars(sc, opts)
	add("fig/scalars",
		cellOf("base utilization, regular only (paper: ~0.22)", "value", s.BaseUtil),
		cellOf("adaptive gap at base utilization (paper: 10)", "value", s.AdaptiveGap),
		cellOf("true mean delay @67% random, µs", "value", s.TrueMean67Random),
		cellOf("true mean delay @93% random, µs", "value", s.TrueMean93Random),
		cellOf("true mean delay @67% bursty, µs", "value", s.TrueMean67Bursty),
		cellOf("median rel err, static @93% (paper: ~0.042-0.045)", "value", s.Median93Static))

	for _, f := range []struct {
		id  string
		fig rlir.MultiFigure
	}{
		{"4a", rlir.Fig4aMulti(sc, opts)},
		{"4b", rlir.Fig4bMulti(sc, opts)},
		{"4c", rlir.Fig4cMulti(sc, opts)},
	} {
		var cells []goldenCell
		for _, sr := range f.fig.Series {
			cells = append(cells,
				cellOf(sr.Label, "medianRelErr", sr.Median),
				cellOf(sr.Label, "p90RelErr", sr.P90),
				cellOf(sr.Label, "fracUnder10%", sr.FracUnder10Pct))
		}
		add("fig/"+f.id, cells...)
	}

	ft := rlir.DefaultFatTreeConfig()
	ft.Seed = sc.Seed
	var cells []goldenCell
	for _, r := range rlir.MultiDemux(ft, opts) {
		cells = append(cells,
			cellOf(r.Strategy.String(), "misattribution", r.Misattribution),
			cellOf(r.Strategy.String(), "downstreamMedian", r.DownstreamMedian))
	}
	add("fig/A1", cells...)

	cells = nil
	for _, r := range rlir.MultiEstimators(sc, 0.8, opts) {
		cells = append(cells,
			cellOf(r.Estimator.String(), "medianRelErr", r.Median),
			cellOf(r.Estimator.String(), "p90RelErr", r.P90))
	}
	add("fig/A2", cells...)

	cells = nil
	for _, r := range rlir.MultiClocks(sc, 0.8, opts) {
		cells = append(cells,
			cellOf(r.Clock, "medianRelErr", r.Median),
			cellOf(r.Clock, "trueMean(µs)", r.TrueMeanUs))
	}
	add("fig/A3", cells...)

	// B1 reports per-flow mechanisms under medianRelErr and the
	// aggregate-only LDA under aggRelErr; the other column is "does not
	// produce the metric" (N = 0).
	b := rlir.MultiBaselines(sc, 0.85, opts)
	var none rlir.MetricCI
	add("fig/B1",
		cellOf("RLIR", "medianRelErr", b.RLIRMedian), cellOf("RLIR", "aggRelErr", none),
		cellOf("Multiflow (2-sample)", "medianRelErr", b.MultiflowMedian), cellOf("Multiflow (2-sample)", "aggRelErr", none),
		cellOf("NetFlow 1-in-32", "medianRelErr", b.SampledMedian), cellOf("NetFlow 1-in-32", "aggRelErr", none),
		cellOf("LDA", "medianRelErr", none), cellOf("LDA", "aggRelErr", b.LDAMeanErr))

	// L1's success rate is the mean of a per-seed 0/1 column; rebuild the
	// column from the same derived seeds and check it against the rate.
	lc := rlir.DefaultLocalizationConfig()
	lc.Seed = sc.Seed
	l := rlir.MultiLocalization(lc, opts)
	var hits []bool
	for _, seed := range opts.DeriveSeeds(lc.Seed) {
		c := lc
		c.Seed = seed
		hits = append(hits, rlir.RunLocalization(c).Localized())
	}
	localized := fractionOf(hits)
	if localized.Mean != l.SuccessRate {
		t.Fatalf("L1 0/1 column mean %v != SuccessRate %v", localized.Mean, l.SuccessRate)
	}
	fault := fmt.Sprintf("%s agg[%d] +%v", lc.Site, lc.AggIndex, lc.ExtraDelay)
	add("fig/L1",
		cellOf(fault, "localized", localized),
		cellOf(fault, "faultyInflation", l.FaultyInflation))

	for _, spec := range goldenSweepSpecs(t) {
		mr, err := rlir.RunScenarioMulti(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := "scenario/" + spec.Name
		add(name+"/headline",
			cellOf("", "medianRelErr", mr.MedianRelErr),
			cellOf("", "p90RelErr", mr.P90RelErr),
			cellOf("", "misattribution", mr.Misattribution),
			cellOf("", "hotLinkUtil", mr.HotLinkUtil),
			cellOf("", "estP99(µs)", mr.EstP99Us))

		cells = nil
		for _, e := range mr.Estimators {
			cells = append(cells,
				cellOf(e.Name, "flows", e.Flows),
				cellOf(e.Name, "medianRelErr", e.MedianRelErr),
				cellOf(e.Name, "p99RelErr", e.P99RelErr),
				cellOf(e.Name, "aggRelErr", e.AggRelErr),
				cellOf(e.Name, "injBytes", e.InjectedBytes),
				cellOf(e.Name, "smpBytes", e.SampledBytes))
		}
		add(name+"/estimators", cells...)

		cells = nil
		for _, r := range mr.Telemetry {
			cells = append(cells,
				cellOf(r.Name, "dropped", r.FramesDropped),
				cellOf(r.Name, "coverage", r.FlowCoverage),
				cellOf(r.Name, "medianRelErr", r.BaselineMedianRelErr),
				cellOf(r.Name, "degradedMedian", r.DegradedMedianRelErr),
				cellOf(r.Name, "deltaMedian", r.DeltaMedianRelErr),
				cellOf(r.Name, "degradedAgg", r.DegradedAggRelErr))
		}
		add(name+"/telemetry", cells...)

		cells = nil
		for i, r := range mr.Detection {
			hits = nil
			for _, res := range mr.PerSeed {
				hits = append(hits, res.Detection.Rows[i].Detected)
			}
			detected := fractionOf(hits)
			if detected.Mean != r.DetectedFrac {
				t.Fatalf("%s detected 0/1 column mean %v != DetectedFrac %v", r.Name, detected.Mean, r.DetectedFrac)
			}
			cells = append(cells,
				cellOf(r.Name, "exposure", r.Exposure),
				cellOf(r.Name, "detected", detected))
		}
		add(name+"/detection", cells...)
	}
	return out
}

func TestGoldenSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep run is a multi-simulation test; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_sweeps.json")
	got := captureGoldenSweeps(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenSweepTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, fixture %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || len(g.Cells) != len(w.Cells) {
			t.Fatalf("table %d is %s with %d cells, fixture %s with %d", i, g.Name, len(g.Cells), w.Name, len(w.Cells))
		}
		for j, gc := range g.Cells {
			if wc := w.Cells[j]; gc != wc {
				t.Errorf("%s:\n got     %+v\n fixture %+v", g.Name, gc, wc)
			}
		}
	}
}
