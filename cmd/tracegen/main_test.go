package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/netmeasure/rlir/internal/trace"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSummaryDeterministic pins the packet mode: the workload is
// summarised on stdout, reproducibly per seed, and differently across seeds.
func TestSummaryDeterministic(t *testing.T) {
	summary := func(seed string) string {
		var buf strings.Builder
		if err := run([]string{"-seed", seed, "-duration", "20ms", "-rate", "50e6"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := summary("1")
	if !strings.Contains(a, "packets=") {
		t.Fatalf("summary names no packet count:\n%s", a)
	}
	if a != summary("1") {
		t.Fatal("same seed, different summary")
	}
	if a == summary("2") {
		t.Fatal("seeds 1 and 2 summarise identically")
	}
}

// TestEmitLinkRoundTrips pins the link emit mode: both encodings of the
// same seed parse back to the identical trace, and regeneration is
// byte-reproducible.
func TestEmitLinkRoundTrips(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "link.json")
	csvPath := filepath.Join(dir, "link.csv")
	common := []string{"-emit", "link", "-seed", "9", "-duration", "100ms", "-link-step", "20ms"}
	if err := run(append([]string{"-o", jsonPath}, common...), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-o", csvPath, "-link-format", "csv"}, common...), io.Discard); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := trace.ParseLinkTrace(readFile(t, jsonPath))
	if err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	fromCSV, err := trace.ParseLinkTrace(readFile(t, csvPath))
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, fromCSV) {
		t.Fatal("JSON and CSV encodings of the same seed diverge")
	}
	if len(fromJSON.Samples) != 6 {
		t.Fatalf("100ms at 20ms step yields %d rows, want 6", len(fromJSON.Samples))
	}
	again := filepath.Join(dir, "again.json")
	if err := run(append([]string{"-o", again}, common...), io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, jsonPath), readFile(t, again)) {
		t.Fatal("link emit is not byte-reproducible")
	}
	// Without -o the trace streams to stdout in the requested encoding.
	var buf strings.Builder
	if err := run(append([]string{"-link-format", "csv"}, common...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t_ns,delay_ns,loss\n") {
		t.Fatalf("stdout CSV missing header:\n%s", buf.String())
	}
}

// TestMainExitsNonZeroOnBadEmit re-executes the test binary as the real
// main: an unknown -emit mode must exit non-zero listing the valid modes.
func TestMainExitsNonZeroOnBadEmit(t *testing.T) {
	if os.Getenv("TRACEGEN_MAIN_PROBE") == "1" {
		os.Args = []string{"tracegen", "-emit", "frames"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnBadEmit")
	cmd.Env = append(os.Environ(), "TRACEGEN_MAIN_PROBE=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted an unknown -emit; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "valid: packet, link") {
		t.Fatalf("failure output does not list the valid emit modes:\n%s", out)
	}
}

// TestParseArgsValidation pins the flag surface.
func TestParseArgsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"defaults", nil, ""},
		{"packet output", []string{"-o", "x.trc"}, "-o applies to -emit link"},
		{"bad rate", []string{"-rate", "fast"}, "-rate"},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"stray args", []string{"extra"}, "unexpected arguments"},
		{"emit link", []string{"-emit", "link", "-o", "x.json"}, ""},
		{"emit link csv", []string{"-emit", "link", "-link-format", "csv"}, ""},
		{"bad emit", []string{"-emit", "frames"}, "valid: packet, link"},
		{"bad link format", []string{"-emit", "link", "-link-format", "yaml"}, "valid: json, csv"},
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
