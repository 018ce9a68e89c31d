package rlir_test

import (
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// smallTandem is the CI-sized Figure-3 base spec.
func smallTandem(tb testing.TB) rlir.ScenarioSpec {
	tb.Helper()
	spec, err := rlir.TandemSpec("small")
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// TestPublicAPITandem exercises the facade end to end the way README's
// quickstart does.
func TestPublicAPITandem(t *testing.T) {
	res, err := rlir.RunScenario(smallTandem(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Flows == 0 {
		t.Fatal("no flows measured through public API")
	}
	cdf := rlir.MeanErrCDF(res.Results)
	if cdf.N() != res.Overall.Flows {
		t.Fatal("CDF size mismatch")
	}
	if got := res.Spec.Label(); got != "static(1-and-100), random, 93%" {
		t.Fatalf("label = %q", got)
	}
}

func TestPublicAPIParsers(t *testing.T) {
	if _, err := rlir.ParseAddr("10.1.2.3"); err != nil {
		t.Fatal(err)
	}
	if _, err := rlir.ParseAddr("nope"); err == nil {
		t.Fatal("expected error")
	}
	if a, _ := rlir.ParseAddr("10.9.9.9"); a != rlir.MustParseAddr("10.9.9.9") {
		t.Fatal("ParseAddr and MustParseAddr disagree")
	}
}

func TestPublicAPISchemes(t *testing.T) {
	if rlir.DefaultStatic().Gap(0.5) != 100 {
		t.Fatal("static default is not 1-and-100")
	}
	a := rlir.DefaultAdaptive()
	if a.Gap(0.22) != 10 || a.Gap(0.99) != 300 {
		t.Fatal("adaptive defaults drifted from the paper")
	}
	if (rlir.Static{N: 7}).Gap(0) != 7 {
		t.Fatal("custom static gap")
	}
}

func TestPublicAPITraceGenerator(t *testing.T) {
	cfg := rlir.DefaultTraceConfig()
	cfg.Duration = 20 * time.Millisecond
	gen := rlir.NewTraceGenerator(cfg)
	n := 0
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if !cfg.SrcPrefix.Contains(rec.Key.Src) {
			t.Fatalf("record outside source pool: %v", rec.Key.Src)
		}
		n++
	}
	if n == 0 {
		t.Fatal("generator yielded nothing")
	}
}

func TestPublicAPIPlacement(t *testing.T) {
	target, err := rlir.ParseExperimentTarget("placement")
	if err != nil {
		t.Fatal(err)
	}
	// Rows are k = 4, 8, ...; columns pair-of-ifaces, pair-of-ToRs,
	// all-ToR-pairs, ...
	rows := target.Run(smallTandem(t)).Table().Rows
	if rows[0].Cells[0] != 6 || rows[1].Cells[2] != 144 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestPublicAPIMicroseconds(t *testing.T) {
	if got := rlir.Microseconds(83 * time.Microsecond); got != 83 {
		t.Fatalf("Microseconds = %v", got)
	}
}

func TestPublicAPIFatTree(t *testing.T) {
	spec := rlir.DefaultFatTreeSpec()
	spec.Duration = 60 * time.Millisecond
	res, err := rlir.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Flows == 0 || res.Misattribution != 0 {
		t.Fatalf("fat-tree via facade: %+v", res.Overall)
	}
}

func TestPublicAPILocalization(t *testing.T) {
	cfg := rlir.DefaultLocalizationConfig()
	cfg.Spec.Duration = 80 * time.Millisecond
	res, err := rlir.RunLocalization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Localized() {
		t.Fatalf("localization via facade failed: %v", res.Anomalies)
	}
}

func TestPublicAPIClockTypes(t *testing.T) {
	var c rlir.ClockSource = rlir.PerfectClock{}
	if c.Read(0) != 0 {
		t.Fatal("perfect clock broken")
	}
	c = rlir.FixedOffsetClock{Offset: time.Microsecond}
	if c.Read(0) != 1000 {
		t.Fatal("offset clock broken")
	}
}
