package rlir_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/scenario"
)

// TestGoldenCosts pins every registry scenario's Diagnostics — events,
// filings, peak heap, the network's books, pipe hand-offs, estimates,
// collector samples and rows, meter records per point, upstream flows —
// exactly, at the scenario's own seed: each is a pure function of (spec,
// seed), so a change that moves one shows as a reviewed diff here. Rewrite
// testdata/golden_costs.json with the same flag as TestGoldenDeterminism:
//
//	go test -run TestGoldenCosts -update-golden .
func TestGoldenCosts(t *testing.T) {
	got := map[string]scenario.Diagnostics{}
	for _, sc := range rlir.Scenarios() {
		res, err := rlir.RunScenario(sc.Spec)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got[sc.Name] = res.Diagnostics
	}
	path := filepath.Join("testdata", "golden_costs.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (capture with -update-golden)", err)
	}
	var want map[string]scenario.Diagnostics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned diagnostics (capture with -update-golden)", name)
		} else if !reflect.DeepEqual(d, w) {
			t.Errorf("%s: diagnostics\n got %+v\nwant %+v", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer registered", name)
		}
	}
}
