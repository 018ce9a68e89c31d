package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestParseArgsValidation pins the flag surface: every enumerated flag
// rejects unknown values with an error listing the valid ones, without
// running a simulation.
func TestParseArgsValidation(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		want  string   // substring of the expected error; "" = must parse
		lists []string // values the error must enumerate
	}{
		{"defaults", nil, "", nil},
		{"fattree", []string{"-topology", "fattree", "-demux", "oracle"}, "", nil},
		{"bad topology", []string{"-topology", "ring"}, `-topology "ring"`, validTopologies},
		{"bad scheme", []string{"-scheme", "exotic"}, `-scheme "exotic"`, validSchemes},
		{"bad model", []string{"-model", "fractal"}, `-model "fractal"`, validModels},
		{"bad scale", []string{"-scale", "galactic"}, `-scale "galactic"`, []string{"small", "default", "full"}},
		{"bad estimator", []string{"-estimator", "cubic"}, `estimator "cubic"`, []string{"linear", "left", "right", "nearest"}},
		{"bad demux", []string{"-topology", "fattree", "-demux", "psychic"}, `demux strategy "psychic"`, []string{"none", "marking", "reverse-ecmp", "oracle"}},
		{"fattree without a sender", []string{"-topology", "fattree", "-scheme", "none"}, `injection scheme "none"`, []string{"static", "adaptive"}},
		{"fattree odd arity", []string{"-topology", "fattree", "-k", "3"}, "K", nil},
		{"negative gap", []string{"-n", "-3"}, "-n", nil},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate", nil},
		{"stray args", []string{"extra"}, "unexpected arguments", nil},
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
			for _, v := range tc.lists {
				if !strings.Contains(err.Error(), v) {
					t.Fatalf("error %q does not list valid value %q", err, v)
				}
			}
		})
	}
}

// TestFatTreeFlagsFillTheSpec pins what each fat-tree flag means now that the
// flags fill a scenario spec directly.
func TestFatTreeFlagsFillTheSpec(t *testing.T) {
	o, err := parseArgs([]string{"-topology", "fattree", "-k", "6", "-demux", "marking",
		"-scheme", "adaptive", "-n", "40", "-seed", "7", "-duration", "30ms"})
	if err != nil {
		t.Fatal(err)
	}
	s := o.spec
	if s.Topology.K != 6 || s.Deploy.Demux != "marking" || s.Deploy.Scheme != "adaptive" ||
		s.Deploy.StaticN != 40 || s.Seed != 7 || s.Duration.Milliseconds() != 30 {
		t.Fatalf("flags filled %+v", s)
	}
}

// TestRunWithoutSenderRendersEmptyCDF is the regression test for the crash
// listed in CHANGES.md PR 15: with -scheme none no sender exists, no estimate
// is produced, and the closing CDF used to panic on its median.
func TestRunWithoutSenderRendersEmptyCDF(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scheme", "none", "-scale", "small"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flows=0") || !strings.HasSuffix(out.String(), "n=0\n") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestMainExitsNonZeroOnUnknownValue re-executes the test binary as the
// real main and asserts the process-level contract: an unknown flag value
// means a non-zero exit with the valid values on stderr.
func TestMainExitsNonZeroOnUnknownValue(t *testing.T) {
	if os.Getenv("RLIRSIM_MAIN_PROBE") == "1" {
		os.Args = []string{"rlirsim", "-topology", "ring"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsNonZeroOnUnknownValue")
	cmd.Env = append(os.Environ(), "RLIRSIM_MAIN_PROBE=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("main accepted an unknown -topology; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("expected a non-zero exit, got %v; output:\n%s", err, out)
	}
	for _, v := range validTopologies {
		if !strings.Contains(string(out), v) {
			t.Fatalf("failure output does not list topology %q:\n%s", v, out)
		}
	}
}
