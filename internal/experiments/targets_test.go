package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// tinyBase keeps multi-seed sweeps affordable in unit tests.
func tinyBase() scenario.Spec {
	s := testBase()
	s.Duration = 120 * time.Millisecond
	return s
}

// TestSweepWorkerInvariance: every registered target's across-seed table
// must not depend on the worker count. Walking the registry means a newly
// registered target is covered the day it lands.
func TestSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep; skipped in -short")
	}
	for _, target := range Targets() {
		t.Run(target.ID, func(t *testing.T) {
			t.Parallel()
			seq, err := Sweep(target, tinyBase(), scenario.MultiOpts{Seeds: 3, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Sweep(target, tinyBase(), scenario.MultiOpts{Seeds: 3, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("worker count changed the sweep:\n%s\n%s", seq.Render(), par.Render())
			}
			wantN := 3
			if target.SingleSeed {
				wantN = 1
			}
			if seq.N != wantN || len(seq.Rows) == 0 {
				t.Fatalf("folded %d runs into %d rows, want %d runs and at least one row", seq.N, len(seq.Rows), wantN)
			}
		})
	}
}

// TestSweepCarriesItsSeedCount pins a footgun the table removed by
// construction: the across-seed renderers used to take the seed count as a
// separate argument, so a zero-valued MultiOpts swept the default 8 seeds
// and printed "over 0 seeds". The fold's own N is what the header prints.
func TestSweepCarriesItsSeedCount(t *testing.T) {
	target, err := ParseTarget("B1")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := Sweep(target, tinyBase(), scenario.MultiOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ci.N != 8 || !strings.Contains(ci.Render(), "over 8 seeds") {
		t.Fatalf("zero-valued MultiOpts folded N=%d and rendered:\n%s", ci.N, ci.Render())
	}
	// B1's mixed scopes ride the NaN contract: LDA has no per-flow error.
	if lda, ok := ci.Cell("LDA", "medianRelErr"); !ok || lda.N != 0 {
		t.Fatalf("LDA medianRelErr = %+v, want N = 0", lda)
	}
	if lda, ok := ci.Cell("LDA", "aggRelErr"); !ok || lda.N != 8 {
		t.Fatalf("LDA aggRelErr = %+v, want N = 8", lda)
	}
}

// TestParseTarget pins the registry lookup: an unknown ID is an error
// naming it and listing every registered target.
func TestParseTarget(t *testing.T) {
	for _, target := range Targets() {
		got, err := ParseTarget(target.ID)
		if err != nil || got.ID != target.ID {
			t.Fatalf("ParseTarget(%q) = %v, %v", target.ID, got.ID, err)
		}
	}
	_, err := ParseTarget("fig99")
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("ParseTarget(fig99) = %v, want an error echoing the ID", err)
	}
	for _, target := range Targets() {
		if !strings.Contains(err.Error(), target.ID) {
			t.Fatalf("error %q does not list target %q", err, target.ID)
		}
	}
}

func TestMetricOf(t *testing.T) {
	m := stats.MetricOf([]float64{1, 2, 3})
	if m.N != 3 || m.Mean != 2 || m.Min != 1 || m.Max != 3 {
		t.Fatalf("metricOf: %+v", m)
	}
	if m.String() == "" || stats.MetricOf(nil).String() != "n/a" {
		t.Fatalf("String rendering broken: %q / %q", m.String(), stats.MetricOf(nil).String())
	}
}
