package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
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
		{"single instance", []string{"-endpoints", "http://127.0.0.1:7172"}, ""},
		{"fleet", []string{"-endpoints", "http://a:1,http://b:2", "-listen", "127.0.0.1:0", "-timeout", "2s"}, ""},
		{"zero instances", []string{}, "no instances"},
		{"empty entry", []string{"-endpoints", "http://a:1,"}, "empty entry"},
		{"duplicate entry", []string{"-endpoints", "http://a:1,http://a:1"}, "twice"},
		{"empty listen", []string{"-endpoints", "http://a:1", "-listen", ""}, "-listen"},
		{"zero timeout", []string{"-endpoints", "http://a:1", "-timeout", "0s"}, "-timeout"},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"stray args", []string{"-endpoints", "http://a:1", "extra"}, "unexpected arguments"},
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

// TestRunServesMergedAPI drives the real daemon loop: two in-process rlird
// instances, the front-end on an ephemeral port, merged queries answered,
// then a graceful SIGTERM exit.
func TestRunServesMergedAPI(t *testing.T) {
	var servers [2]*rlir.MeasurementService
	var endpoints []string
	for i := range servers {
		s, err := rlir.NewMeasurementService(rlir.ServiceConfig{
			Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(t.Context())
		servers[i] = s
		endpoints = append(endpoints, "http://"+s.HTTPAddr().String())
	}
	// One distinct flow per instance; the front-end merges whatever each
	// partition holds.
	for i, s := range servers {
		c, err := rlir.DialService("tcp", s.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		key := rlir.FlowKey{
			Src: rlir.MustParseAddr("10.0.0.1"), Dst: rlir.MustParseAddr(fmt.Sprintf("10.0.1.%d", i+1)),
			SrcPort: uint16(1000 + i), DstPort: 7171, Proto: 6,
		}
		for j := 0; j < 50; j++ {
			if err := c.Add(key, time.Microsecond, time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Collector().SamplesIngested() < 50 {
			if time.Now().After(deadline) {
				t.Fatal("samples not ingested")
			}
			time.Sleep(time.Millisecond)
		}
	}

	var out strings.Builder
	var mu sync.Mutex
	errCh := make(chan error, 1)
	ready := make(chan net.Addr, 1)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		errCh <- run([]string{"-endpoints", strings.Join(endpoints, ","), "-listen", "127.0.0.1:0"}, &out, ready)
	}()
	addr := <-ready
	base := "http://" + addr.String()

	var health rlir.FleetHealth
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Instances != 2 || health.Flows != 2 {
		t.Fatalf("fleet health wrong: %+v", health)
	}

	resp, err = http.Get(base + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	var flows []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&flows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(flows) != 2 {
		t.Fatalf("merged /flows has %d rows, want 2", len(flows))
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("front-end did not exit on SIGTERM")
	}
	mu.Lock()
	output := out.String()
	mu.Unlock()
	for _, want := range []string{"merged query API on http://", "fleet of 2", "instance 1:", "shutting down"} {
		if !strings.Contains(output, want) {
			t.Errorf("daemon output missing %q:\n%s", want, output)
		}
	}
}

// TestRunSkipsStaleInstance re-executes the test binary as the real
// front-end process pointed at one current rlird instance and two stale
// peers: one whose /snapshot speaks the pre-versioning schema (no "version"
// field) and one answering with a version-2 binary body of two flows
// (captured from the last commit that spoke it). The spawned front-end must
// serve the current instance's flows, skip the stale ones, and still shut
// down cleanly on SIGTERM.
func TestRunSkipsStaleInstance(t *testing.T) {
	if os.Getenv("RLIRFLEET_STALE_PROBE") == "1" {
		os.Args = []string{"rlirfleet", "-endpoints", os.Getenv("RLIRFLEET_STALE_ENDPOINTS"), "-listen", "127.0.0.1:0"}
		main()
		return
	}

	// A stale peer: every query answers with a version-0 snapshot body.
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"samples":9,"records":0,"flows":[]}`)
	}))
	defer stale.Close()
	v2body, err := os.ReadFile("../../internal/queryapi/testdata/snapshot_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	v2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-rlir-snapshot")
		w.Write(v2body)
	}))
	defer v2.Close()

	s, err := rlir.NewMeasurementService(rlir.ServiceConfig{
		Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	c, err := rlir.DialService("tcp", s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := rlir.FlowKey{
		Src: rlir.MustParseAddr("10.0.0.1"), Dst: rlir.MustParseAddr("10.0.1.1"),
		SrcPort: 1000, DstPort: 7171, Proto: 6,
	}
	for j := 0; j < 20; j++ {
		if err := c.Add(key, time.Microsecond, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Collector().SamplesIngested() < 20 {
		if time.Now().After(deadline) {
			t.Fatal("samples not ingested")
		}
		time.Sleep(time.Millisecond)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestRunSkipsStaleInstance")
	cmd.Env = append(os.Environ(),
		"RLIRFLEET_STALE_PROBE=1",
		"RLIRFLEET_STALE_ENDPOINTS=http://"+s.HTTPAddr().String()+","+stale.URL+","+v2.URL,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its bound address; that is the readiness signal.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, after, ok := strings.Cut(line, "merged query API on "); ok {
			base = strings.Fields(after)[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("front-end never announced its address (scan err: %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout) // keep draining so the child never blocks

	resp, err := http.Get(base + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	var flows []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&flows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/flows status %d with a stale peer, want 200 degraded", resp.StatusCode)
	}
	if len(flows) != 1 {
		t.Fatalf("/flows has %d rows, want only the current instance's 1 (the version-2 peer holds 2)", len(flows))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("front-end exited with %v, want clean SIGTERM shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("front-end did not exit on SIGTERM")
	}
}

// TestMainExitsOnZeroInstances re-executes the test binary as the real main:
// a missing -endpoints must exit 1 with the constraint on stderr.
func TestMainExitsOnZeroInstances(t *testing.T) {
	if os.Getenv("RLIRFLEET_MAIN_PROBE") == "1" {
		os.Args = []string{"rlirfleet"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsOnZeroInstances")
	cmd.Env = append(os.Environ(), "RLIRFLEET_MAIN_PROBE=1")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("expected exit 1, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "no instances") {
		t.Fatalf("failure output does not state the constraint:\n%s", out)
	}
}

// TestMainExitsOnUnknownEndpoint re-executes main with a schemeless endpoint:
// front-end construction must reject it and the process must exit 1.
func TestMainExitsOnUnknownEndpoint(t *testing.T) {
	if os.Getenv("RLIRFLEET_ENDPOINT_PROBE") == "1" {
		os.Args = []string{"rlirfleet", "-endpoints", "127.0.0.1:7172"}
		main()
		return // unreachable: main must have exited non-zero
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitsOnUnknownEndpoint")
	cmd.Env = append(os.Environ(), "RLIRFLEET_ENDPOINT_PROBE=1")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("expected exit 1, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "bad instance URL") {
		t.Fatalf("failure output does not name the bad URL:\n%s", out)
	}
}
