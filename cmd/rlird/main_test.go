package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
		{"defaults", []string{}, ""},
		{"tcp and http", []string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, ""},
		{"unix only", []string{"-listen", "", "-unix", "/tmp/x.sock"}, ""},
		{"sized", []string{"-shards", "8", "-depth", "32", "-window", "5s", "-drain", "1s"}, ""},
		{"check config", []string{"-check-config"}, ""},
		{"no listener", []string{"-listen", ""}, "no ingest listener"},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"stray args", []string{"extra"}, "unexpected arguments"},
		{"missing config", []string{"-config", "/nonexistent/rlird.json"}, "no such file"},
		{"negative max-flows", []string{"-max-flows", "-5"}, "max_flows -5"},
		{"negative shards", []string{"-shards", "-3"}, "shards -3"},
		{"negative depth", []string{"-depth", "-1"}, "depth -1"},
		{"negative max-frame-records", []string{"-max-frame-records", "-7"}, "max_frame_records -7"},
		{"negative window", []string{"-window", "-1s"}, "window_ns"},
		{"negative drain", []string{"-drain", "-1s"}, "drain_timeout_ns"},
		{"negative check-config", []string{"-check-config", "-max-classes", "-1"}, "max_classes -1"},
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

// TestConfigFileAndFlagPrecedence pins the -config contract: file fields
// apply, explicitly set flags win.
func TestConfigFileAndFlagPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rlird.json")
	cfg := `{"listen": "127.0.0.1:9999", "shards": 6, "window_ns": 3000000000}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Listen != "127.0.0.1:9999" || o.cfg.Shards != 6 || o.cfg.Window != 3*time.Second {
		t.Fatalf("config file not applied: %+v", o.cfg)
	}

	o, err = parseArgs([]string{"-config", path, "-listen", "127.0.0.1:1234", "-shards", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Listen != "127.0.0.1:1234" || o.cfg.Shards != 2 {
		t.Fatalf("flags did not override the file: %+v", o.cfg)
	}
	if o.cfg.Window != 3*time.Second {
		t.Fatalf("unset flag clobbered the file's window: %+v", o.cfg)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"shardz": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseArgs([]string{"-config", bad}); err == nil {
		t.Fatal("misspelled config field accepted")
	}
}

// TestBoundedTableFlags pins the memory-bound surface: -max-flows,
// -flow-window and -max-classes reach the service config from flags and
// from the JSON config file, with flags winning.
func TestBoundedTableFlags(t *testing.T) {
	o, err := parseArgs([]string{"-max-flows", "1000", "-flow-window", "90s", "-max-classes", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.MaxFlows != 1000 || o.cfg.FlowWindow != 90*time.Second || o.cfg.MaxClasses != 64 {
		t.Fatalf("bound flags not applied: %+v", o.cfg)
	}

	path := filepath.Join(t.TempDir(), "rlird.json")
	cfg := `{"listen": "127.0.0.1:9999", "max_flows": 500, "flow_window_ns": 60000000000, "max_classes": 32}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = parseArgs([]string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.MaxFlows != 500 || o.cfg.FlowWindow != time.Minute || o.cfg.MaxClasses != 32 {
		t.Fatalf("config-file bounds not applied: %+v", o.cfg)
	}
	o, err = parseArgs([]string{"-config", path, "-max-flows", "2000"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.MaxFlows != 2000 || o.cfg.FlowWindow != time.Minute {
		t.Fatalf("flag did not override the file's cap: %+v", o.cfg)
	}
}

func TestCheckConfigPrintsJSON(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-check-config", "-shards", "4"}, &buf, nil); err != nil {
		t.Fatal(err)
	}
	var cfg rlir.ServiceConfig
	if err := json.Unmarshal([]byte(buf.String()), &cfg); err != nil {
		t.Fatalf("-check-config output is not JSON: %v\n%s", err, buf.String())
	}
	if cfg.Shards != 4 || cfg.Listen == "" {
		t.Fatalf("effective config wrong: %+v", cfg)
	}
}

// TestRunServesAndShutsDownOnSignal drives the real daemon loop: ephemeral
// ports, a client streaming while SIGTERM arrives, a graceful exit.
func TestRunServesAndShutsDownOnSignal(t *testing.T) {
	ready := make(chan *rlir.MeasurementService, 1)
	var out strings.Builder
	var mu sync.Mutex
	errCh := make(chan error, 1)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		errCh <- run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain", "500ms"}, &out, ready)
	}()
	s := <-ready

	c, err := rlir.DialService("tcp", s.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := rlir.FlowKey{Src: rlir.MustParseAddr("10.0.0.1"), Dst: rlir.MustParseAddr("10.0.1.1"), SrcPort: 1, DstPort: 2, Proto: 6}
	for i := 0; i < 100; i++ {
		if err := c.Add(key, time.Microsecond, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Collector().SamplesIngested() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("samples not ingested")
		}
		time.Sleep(time.Millisecond)
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
		t.Fatal("daemon did not exit on SIGTERM")
	}
	mu.Lock()
	output := out.String()
	mu.Unlock()
	for _, want := range []string{"ingest listening on tcp", "query API on http://", "draining", "final state 1 flows, 100 samples"} {
		if !strings.Contains(output, want) {
			t.Errorf("daemon output missing %q:\n%s", want, output)
		}
	}
}
