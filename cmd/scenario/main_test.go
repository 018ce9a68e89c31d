package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error; "" = must parse
	}{
		{"list", []string{"-list"}, ""},
		{"list json", []string{"-list", "-json"}, ""},
		{"run", []string{"-run", "incast"}, ""},
		{"run checked multi", []string{"-run", "incast", "-check", "-seeds", "4", "-parallel", "2"}, ""},
		{"describe", []string{"-describe", "incast"}, ""},
		{"spec file", []string{"-spec", "x.json", "-seed", "7"}, ""},
		{"list estimators", []string{"-list-estimators"}, ""},
		{"list estimators json", []string{"-list-estimators", "-json"}, ""},
		{"run with estimators", []string{"-run", "incast", "-estimators", "rli,lda"}, ""},
		{"spec with estimators", []string{"-spec", "x.json", "-estimators", "netflow-sample"}, ""},
		{"no mode", []string{}, "exactly one"},
		{"two modes", []string{"-list", "-run", "incast"}, "exactly one"},
		{"list and estimator list", []string{"-list", "-list-estimators"}, "exactly one"},
		{"spec with check", []string{"-spec", "x.json", "-check"}, "no invariant"},
		{"zero seeds", []string{"-run", "incast", "-seeds", "0"}, "-seeds"},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"stray args", []string{"-list", "extra"}, "unexpected arguments"},
		{"estimators without run", []string{"-list", "-estimators", "lda"}, "-estimators"},
		{"unknown estimator", []string{"-run", "incast", "-estimators", "bogus"}, "bogus"},
		{"run with link trace", []string{"-run", "trace-replay", "-link-trace", "link.json"}, ""},
		{"run with stats", []string{"-run", "incast", "-stats", "-check"}, ""},
		{"stats without run", []string{"-list", "-stats"}, "-stats"},
		{"stats multi-seed", []string{"-run", "incast", "-stats", "-seeds", "2"}, "single-seed"},
		{"spec with link trace", []string{"-spec", "x.json", "-link-trace", "link.csv"}, ""},
		{"link trace without run", []string{"-list", "-link-trace", "link.json"}, "-link-trace"},
		{"run base spec", []string{"-run", "tandem-small", "-seed", "3"}, ""},
		{"describe base spec", []string{"-describe", "fattree"}, ""},
		{"base spec with check", []string{"-run", "fattree", "-check"}, "no invariant"},
		{"describe with check", []string{"-describe", "incast", "-check"}, "-check"},
		{"describe with seeds", []string{"-describe", "incast", "-seeds", "4"}, "-seeds"},
		{"describe with parallel", []string{"-describe", "incast", "-parallel", "2"}, "-parallel"},
		{"describe with json", []string{"-describe", "incast", "-json"}, "-json"},
		{"list with seed", []string{"-list", "-seed", "9"}, "-seed"},
		{"list with check", []string{"-list", "-check"}, "-check"},
		{"run with json", []string{"-run", "incast", "-json"}, "-json"},
		{"negative parallel", []string{"-run", "incast", "-seeds", "4", "-parallel", "-3"}, "-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("parseArgs(%v) = %v, want success", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseArgs(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestListJSONCoversRegistry(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.Unmarshal([]byte(buf.String()), &names); err != nil {
		t.Fatalf("-list -json output is not a JSON array: %v\n%s", err, buf.String())
	}
	want := rlir.ScenarioNames()
	if len(names) != len(want) {
		t.Fatalf("-list -json has %d names, registry has %d", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("-list -json[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestListEstimatorsJSONCoversRegistry pins the CI estimator-matrix input:
// -list-estimators -json emits exactly the measure registry, rli first.
func TestListEstimatorsJSONCoversRegistry(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list-estimators", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.Unmarshal([]byte(buf.String()), &names); err != nil {
		t.Fatalf("-list-estimators -json output is not a JSON array: %v\n%s", err, buf.String())
	}
	want := rlir.EstimatorNames()
	if len(names) != len(want) || names[0] != "rli" {
		t.Fatalf("-list-estimators -json = %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("-list-estimators -json[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestUnknownEstimatorListsRegistry pins the rejection contract for the
// -estimators flag.
func TestUnknownEstimatorListsRegistry(t *testing.T) {
	_, err := parseArgs([]string{"-run", "incast", "-estimators", "nonexistent"})
	if err == nil {
		t.Fatal("unknown estimator accepted")
	}
	for _, name := range rlir.EstimatorNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list estimator %q", err, name)
		}
	}
}

func TestListShowsInvariants(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range rlir.ScenarioNames() {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("-list output missing scenario %q", name)
		}
	}
	if !strings.Contains(buf.String(), "invariant:") {
		t.Fatal("-list output missing invariant descriptions")
	}
}

// TestListAligns: -list sizes its name column from the longest registered
// name, so every description and every invariant line starts at one column
// (a fixed width once shifted the rows of names that overflowed it).
func TestListAligns(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	scs := rlir.Scenarios()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2*len(scs) {
		t.Fatalf("%d lines for %d scenarios:\n%s", len(lines), len(scs), buf.String())
	}
	col := -1
	for i, sc := range scs {
		desc, inv := lines[2*i], lines[2*i+1]
		at := strings.Index(desc, sc.Stresses)
		if !strings.HasPrefix(desc, sc.Name+" ") || at <= len(sc.Name) {
			t.Fatalf("description line %q does not start with %q", desc, sc.Name)
		}
		if col < 0 {
			col = at
		}
		if at != col || strings.Index(inv, "invariant: ") != col {
			t.Errorf("%s: description at column %d, invariant at %d, want both at %d:\n%s\n%s",
				sc.Name, at, strings.Index(inv, "invariant: "), col, desc, inv)
		}
	}
}

func TestRunUnknownScenarioListsRegistry(t *testing.T) {
	err := run([]string{"-run", "nonexistent"}, io.Discard)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	names := rlir.ScenarioNames()
	for _, s := range baseSpecs() {
		names = append(names, s.Name)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list name %q", err, name)
		}
	}
}

// TestBaseSpecNamesAreFree: a base spec is reached only when no registered
// scenario has its name, so none may.
func TestBaseSpecNamesAreFree(t *testing.T) {
	for _, s := range baseSpecs() {
		if _, ok := rlir.ScenarioByName(s.Name); ok {
			t.Errorf("base spec %q is shadowed by a registered scenario", s.Name)
		}
	}
}

// TestBaseSpecsRoundTrip: each base spec's -describe output reads back as a
// -spec file unchanged.
func TestBaseSpecsRoundTrip(t *testing.T) {
	for _, want := range baseSpecs() {
		var buf strings.Builder
		if err := run([]string{"-describe", want.Name}, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := rlir.DecodeScenarioSpec([]byte(buf.String()))
		if err != nil {
			t.Fatalf("-describe %s is not a valid spec: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-describe %s read back as\n%+v\nwant\n%+v", want.Name, got, want)
		}
	}
}

// TestRunWithoutSenderRendersEmptyCDF edits a base spec the way the README
// does — -describe, replace a value, -spec — into the tandem's
// uninstrumented run: no sender, no estimate, and an empty CDF that once
// panicked on its median.
func TestRunWithoutSenderRendersEmptyCDF(t *testing.T) {
	path := editedBase(t, "tandem-small", `"scheme": "static"`, `"scheme": "none"`)
	var out strings.Builder
	if err := run([]string{"-spec", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flows=0") || !strings.Contains(out.String(), "relative error (mean estimates) n=0\n") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// editedBase writes base spec name's -describe output, with its first from
// replaced by to, to a temporary -spec file and returns the file's path.
func editedBase(t *testing.T, name, from, to string) string {
	t.Helper()
	var desc strings.Builder
	if err := run([]string{"-describe", name}, &desc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc.String(), from) {
		t.Fatalf("-describe %s has no %q to edit:\n%s", name, from, desc.String())
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, []byte(strings.Replace(desc.String(), from, to, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEditedSpecRejections pins the value checks now that a run's knobs are
// spec fields: a base spec edited to an unknown value, or an unknown base
// name, fails before any simulation with an error naming the value and
// listing the valid ones; the simulation flags the spec fields replaced are
// unknown to the parser.
func TestEditedSpecRejections(t *testing.T) {
	cases := []struct {
		name     string
		base     string // base spec to describe, edit and run with -spec; "" runs args alone
		from, to string
		args     []string
		want     string   // substring of the expected error
		lists    []string // values the error must enumerate
	}{
		{name: "bad topology", base: "tandem-small", from: `"kind": "tandem"`, to: `"kind": "ring"`,
			want: `topology kind "ring"`, lists: []string{"tandem", "fattree"}},
		{name: "bad scheme", base: "tandem-small", from: `"scheme": "static"`, to: `"scheme": "exotic"`,
			want: `injection scheme "exotic"`, lists: []string{"static", "adaptive", "none"}},
		{name: "bad model", base: "tandem-small", from: `"cross_model": "uniform"`, to: `"cross_model": "fractal"`,
			want: `cross model "fractal"`, lists: []string{"uniform", "bursty", "none"}},
		{name: "bad scale", args: []string{"-run", "tandem-galactic"},
			want: `unknown scenario "tandem-galactic"`, lists: []string{"tandem-small", "tandem-default", "tandem-full"}},
		{name: "bad estimator", base: "tandem-small", from: `"scheme": "static",`, to: `"scheme": "static", "interpolation": "cubic",`,
			want: `estimator "cubic"`, lists: []string{"linear", "left", "right", "nearest"}},
		{name: "bad demux", base: "fattree", from: `"demux": "reverse-ecmp"`, to: `"demux": "psychic"`,
			want: `demux strategy "psychic"`, lists: []string{"none", "marking", "reverse-ecmp", "oracle"}},
		{name: "fattree without a sender", base: "fattree", from: `"scheme": "static"`, to: `"scheme": "none"`,
			want: `injection scheme "none"`, lists: []string{"static", "adaptive"}},
		{name: "fattree odd arity", base: "fattree", from: `"k": 4`, to: `"k": 3`, want: "even"},
		{name: "unknown flag", args: []string{"-run", "fattree", "-topology", "fattree"}, want: "-topology"},
		{name: "stray args", args: []string{"-describe", "tandem-small", "fattree"}, want: "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.base != "" {
				args = append([]string{"-spec", editedBase(t, tc.base, tc.from, tc.to)}, args...)
			}
			err := run(args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error mentioning %q", args, err, tc.want)
			}
			for _, v := range tc.lists {
				if !strings.Contains(err.Error(), v) {
					t.Fatalf("error %q does not list valid value %q", err, v)
				}
			}
		})
	}
}

// TestMainExitsNonZeroOnUnknownValue re-executes the test binary as the
// real main: a -spec file with an unknown topology kind must exit non-zero
// with the valid kinds on stderr.
func TestMainExitsNonZeroOnUnknownValue(t *testing.T) {
	if path := os.Getenv("SCENARIO_MAIN_PROBE_VALUE"); path != "" {
		os.Args = []string{"scenario", "-spec", path}
		main()
		return // unreachable: main must have exited non-zero
	}
	path := editedBase(t, "tandem-small", `"kind": "tandem"`, `"kind": "ring"`)
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnUnknownValue")
	cmd.Env = append(os.Environ(), "SCENARIO_MAIN_PROBE_VALUE="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted an unknown topology kind; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	for _, v := range []string{`"ring"`, "tandem", "fattree"} {
		if !strings.Contains(string(out), v) {
			t.Fatalf("failure output does not list %s:\n%s", v, out)
		}
	}
}

func TestDescribeRoundTrips(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-describe", "degraded-link"}, &buf); err != nil {
		t.Fatal(err)
	}
	spec, err := rlir.DecodeScenarioSpec([]byte(buf.String()))
	if err != nil {
		t.Fatalf("-describe output is not a valid spec: %v", err)
	}
	if spec.Name != "degraded-link" || len(spec.Faults) != 1 {
		t.Fatalf("described spec lost fields: %+v", spec)
	}
}

func TestSpecFileRuns(t *testing.T) {
	spec := rlir.DefaultScenarioSpec()
	spec.Name = "adhoc"
	spec.Topology.LinkBps = 200e6
	spec.Duration = 30 * time.Millisecond
	data, err := spec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "adhoc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// -seed overrides the spec's seed whenever it is passed — 0 included —
	// and only then.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "7"}, "scenario adhoc (seed 7)"},
		{[]string{"-seed", "0"}, "scenario adhoc (seed 0)"},
		{nil, fmt.Sprintf("scenario adhoc (seed %d)", spec.Seed)},
	} {
		var buf strings.Builder
		if err := run(append([]string{"-spec", path}, tc.args...), &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Fatalf("-spec %v did not print %q:\n%s", tc.args, tc.want, buf.String())
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestLinkTraceFileOverride pins the -link-trace path: a tracegen-format
// file replaces the spec's inline rows, lands on the default core
// down-link, and shows up in the run report; bad or malformed files fail
// before any simulation runs.
func TestLinkTraceFileOverride(t *testing.T) {
	lt, err := rlir.GenLinkTrace(rlir.LinkTraceConfig{
		Seed: 3, Duration: 25 * time.Millisecond, Step: 5 * time.Millisecond,
		BaseDelay: 50 * time.Microsecond, MaxExtra: 200 * time.Microsecond, MaxLoss: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ltPath := filepath.Join(dir, "link.csv")
	if err := os.WriteFile(ltPath, lt.EncodeCSV(), 0o644); err != nil {
		t.Fatal(err)
	}

	spec := rlir.DefaultScenarioSpec()
	spec.Name = "adhoc-linktrace"
	spec.Topology.LinkBps = 200e6
	spec.Duration = 30 * time.Millisecond
	data, err := spec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-spec", specPath, "-link-trace", ltPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "link trace replay on core0.0->pod3") {
		t.Fatalf("run report missing the replayed link trace:\n%s", buf.String())
	}

	// A missing file fails before any simulation.
	err = run([]string{"-spec", specPath, "-link-trace", filepath.Join(dir, "missing.json")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-link-trace") {
		t.Fatalf("missing link-trace file: %v, want a -link-trace error", err)
	}
	// So does a malformed one, naming the file.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"version":9,"samples":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-spec", specPath, "-link-trace", badPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("malformed link-trace file: %v, want an error naming it", err)
	}
}

// TestMainExitsNonZeroOnUnknownScenario re-executes the test binary as the
// real main: an unknown -run name must exit non-zero with the registered
// scenarios — including the adversarial/trace-driven family — and the base
// specs on stderr.
func TestMainExitsNonZeroOnUnknownScenario(t *testing.T) {
	if os.Getenv("SCENARIO_MAIN_PROBE") == "1" {
		os.Args = []string{"scenario", "-run", "bogus"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnUnknownScenario")
	cmd.Env = append(os.Environ(), "SCENARIO_MAIN_PROBE=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted an unknown scenario; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	for _, name := range []string{"adversarial-delay", "trace-replay", "repflow", "tandem-small", "fattree"} {
		if !strings.Contains(string(out), name) {
			t.Fatalf("failure output does not list name %q:\n%s", name, out)
		}
	}
}

// TestMainExitsNonZeroOnBadLinkTrace pins the process contract for the new
// flag: -run adversarial-delay with a nonexistent trace file exits non-zero
// before simulating, naming the flag.
func TestMainExitsNonZeroOnBadLinkTrace(t *testing.T) {
	if os.Getenv("SCENARIO_MAIN_PROBE_LT") == "1" {
		os.Args = []string{"scenario", "-run", "adversarial-delay", "-link-trace", "/nonexistent/link.json"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnBadLinkTrace")
	cmd.Env = append(os.Environ(), "SCENARIO_MAIN_PROBE_LT=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted a nonexistent -link-trace file; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-link-trace") {
		t.Fatalf("failure output does not name -link-trace:\n%s", out)
	}
}

func TestSpecFileRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"topology":{"kind":"ring"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path}, io.Discard); err == nil {
		t.Fatal("invalid spec file accepted")
	}
	if err := run([]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}, io.Discard); err == nil {
		t.Fatal("missing spec file accepted")
	}
}
