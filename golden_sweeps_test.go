package rlir_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/stats"
)

// TestGoldenSweeps pins every across-seed statistic the repository reports:
// each sweepable -fig target on the small tandem spec over 2 derived seeds, and the
// comparison / telemetry-loss / detection sub-tables of a multi-seed
// scenario run. Every cell is a stats.MetricCI compared bit for bit (Mean,
// CI95, Min, Max, N). The fixture in testdata/golden_sweeps.json was
// captured from the per-target Multi* harnesses and per-report CI folders
// that preceded the one across-seed fold (stats.FoldTables), so it proves
// the fold computes what they computed.
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

// cellsOf flattens an across-seed table in row-major order.
func cellsOf(t rlir.TableCI) []goldenCell {
	var cells []goldenCell
	for _, r := range t.Rows {
		for j, m := range r.Cells {
			cells = append(cells, goldenCell{Row: r.Label, Col: t.Columns[j],
				Mean: gf(m.Mean), CI95: gf(m.CI95), Min: gf(m.Min), Max: gf(m.Max), N: m.N})
		}
	}
	return cells
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
	opts := rlir.MultiOpts{Seeds: 2}
	var out []goldenSweepTable
	for _, target := range rlir.ExperimentTargets() {
		if target.SingleSeed {
			continue
		}
		ci, err := rlir.Sweep(target, smallTandem(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenSweepTable{Name: "fig/" + target.ID, Cells: cellsOf(ci)})
	}
	for _, spec := range goldenSweepSpecs(t) {
		mr, err := rlir.RunScenarioMulti(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		headline := rlir.TableCI{
			Columns: []string{"medianRelErr", "p90RelErr", "misattribution", "hotLinkUtil", "estP99(µs)"},
			Rows: []stats.TableCIRow{{Cells: []rlir.MetricCI{
				mr.MedianRelErr, mr.P90RelErr, mr.Misattribution, mr.HotLinkUtil, mr.EstP99Us}}},
		}
		name := "scenario/" + spec.Name
		out = append(out,
			goldenSweepTable{Name: name + "/headline", Cells: cellsOf(headline)},
			goldenSweepTable{Name: name + "/estimators", Cells: cellsOf(mr.Estimators)},
			goldenSweepTable{Name: name + "/telemetry", Cells: cellsOf(mr.Telemetry)},
			goldenSweepTable{Name: name + "/detection", Cells: cellsOf(mr.Detection)})
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
