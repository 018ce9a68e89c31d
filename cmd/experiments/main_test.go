package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// tinyBase is the small tandem spec cut to 120 ms, so every target runs in
// test time.
func tinyBase(t *testing.T) rlir.ScenarioSpec {
	t.Helper()
	base, err := rlir.TandemSpec("small")
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 120 * time.Millisecond
	return base
}

// TestUnknownTargetRejected pins the dispatch contract: an unknown -fig
// value must produce an error that names every valid target. There is one
// lookup in front of the one dispatch, so one path to pin.
func TestUnknownTargetRejected(t *testing.T) {
	_, err := rlir.ParseExperimentTarget("fig99")
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	if !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("error %q does not echo the bad target", err)
	}
	for _, valid := range targetIDs() {
		if !strings.Contains(err.Error(), valid) {
			t.Fatalf("error %q does not list valid target %q", err, valid)
		}
	}
}

// TestEveryTargetThroughTheDispatch walks the registry through run, the one
// dispatch, single-seed and swept, on a tiny scale — so a newly registered
// target is covered the day it lands. A sweep prints the across-seed table;
// a single seed, and a SingleSeed target either way, prints the run's table
// (a figure follows it with its CDF curves).
func TestEveryTargetThroughTheDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every target; skipped in -short")
	}
	base := tinyBase(t)
	for _, target := range rlir.ExperimentTargets() {
		t.Run(target.ID, func(t *testing.T) {
			t.Parallel()
			var single, swept bytes.Buffer
			if err := run(&single, target, base, rlir.MultiOpts{Seeds: 1}, ""); err != nil {
				t.Fatal(err)
			}
			if err := run(&swept, target, base, rlir.MultiOpts{Seeds: 2}, ""); err != nil {
				t.Fatal(err)
			}
			if want := target.Run(base).Table().Render(); !strings.HasPrefix(single.String(), want) {
				t.Errorf("-seeds 1 printed:\n%s\nwant the run's table first:\n%s", single.String(), want)
			}
			if strings.Contains(single.String(), "NaN") {
				t.Errorf("-seeds 1 printed a NaN:\n%s", single.String())
			}
			if target.SingleSeed {
				if !strings.HasSuffix(swept.String(), single.String()) || !strings.Contains(swept.String(), "-seeds does not apply") {
					t.Errorf("-seeds 2 on a single-seed target printed:\n%s", swept.String())
				}
				return
			}
			if !strings.Contains(swept.String(), "(mean ±95% CI over 2 seeds)") {
				t.Errorf("-seeds 2 printed no across-seed table:\n%s", swept.String())
			}
		})
	}
}

// TestFigureCSV pins the -csv side of the dispatch: a figure's series land
// in the directory and the run says so.
func TestFigureCSV(t *testing.T) {
	target, err := rlir.ParseExperimentTarget("4a")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, target, tinyBase(t), rlir.MultiOpts{Seeds: 1}, dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 || !strings.Contains(out.String(), "wrote 4 CSV series") {
		t.Fatalf("%d CSV files written; output:\n%s", len(files), out.String())
	}
}

// TestParseEstimatorList pins the shared -estimators validation: unknown
// names are rejected listing the registry; known names pass through in
// order.
func TestParseEstimatorList(t *testing.T) {
	got, err := rlir.ParseEstimatorList("rli, lda")
	if err != nil || len(got) != 2 || got[0] != "rli" || got[1] != "lda" {
		t.Fatalf("ParseEstimatorList(rli, lda) = %v, %v", got, err)
	}
	if _, err := rlir.ParseEstimatorList("bogus"); err == nil {
		t.Fatal("unknown estimator accepted")
	} else {
		for _, name := range rlir.EstimatorNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not list estimator %q", err, name)
			}
		}
	}
}

// TestPlacementTargetRuns exercises one cheap real target end to end
// through the same dispatch an operator hits.
func TestPlacementTargetRuns(t *testing.T) {
	target, err := rlir.ParseExperimentTarget("placement")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, target, tinyBase(t), rlir.MultiOpts{Seeds: 1}, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deployment complexity") {
		t.Fatalf("placement printed:\n%s", out.String())
	}
}

// TestMainExitsNonZeroOnUnknownFig re-executes the test binary as the real
// main and asserts the process-level contract: unknown -fig means a
// non-zero exit with the valid targets on stderr.
func TestMainExitsNonZeroOnUnknownFig(t *testing.T) {
	if os.Getenv("EXPERIMENTS_MAIN_PROBE") == "1" {
		os.Args = []string{"experiments", "-fig", "fig99"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnUnknownFig")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN_PROBE=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted an unknown -fig; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "valid:") || !strings.Contains(string(out), "placement") {
		t.Fatalf("failure output does not list valid targets:\n%s", out)
	}
}

// TestMainRejectsBadSeedsAndScale pins the flag surface the sweep front-ends
// share: -seeds below 1 is rejected (it used to run single-seed silently),
// and an unknown -scale exits non-zero listing the valid ones.
func TestMainRejectsBadSeedsAndScale(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_ARGS_PROBE"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		return // unreachable: main must have exited non-zero
	}
	for _, tc := range []struct{ args, want string }{
		{"-fig placement -seeds 0", "-seeds 0 < 1"},
		{"-fig placement -seeds -3", "-seeds -3 < 1"},
		{"-fig placement -scale galactic", "small, default, full"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run", "TestMainRejectsBadSeedsAndScale")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS_PROBE="+tc.args)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
			t.Fatalf("%s: expected a non-zero exit, got %v; output:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("%s: failure output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
