package service

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeConfig is the robustness target for rlird's -config file, the
// one decoder an operator feeds directly: on arbitrary bytes decodeConfig
// returns a Config or an error and never panics, a Config it accepts has no
// negative field, and re-encoding an accepted Config with json.Marshal
// decodes back to an equal one.
func FuzzDecodeConfig(f *testing.F) {
	for _, seed := range []string{
		`{"listen": "127.0.0.1:7171", "http": "127.0.0.1:7172", "shards": 8, "depth": 32}`,
		`{"unix": "/tmp/rlird.sock", "max_frame_records": 4096, "window_ns": 5000000000, "drain_timeout_ns": 1000000000}`,
		`{"max_flows": 1000, "flow_window_ns": 90000000000, "max_classes": 64}`,
		`{}`,
		`null`,
		// Rejected: data after the object, two objects, negative sizes and
		// durations, an unknown field.
		`{"shards":2} trailing junk`,
		`{"shards":2}{"shards":9}`,
		`{"max_flows": -5}`,
		`{"shards": -3}`,
		`{"depth": -1}`,
		`{"max_frame_records": -7}`,
		`{"window_ns": -1}`,
		`{"listne": "oops"}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeConfig(data)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted a config Validate rejects: %v\n%q", err, data)
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("Marshal of an accepted config: %v", err)
		}
		again, err := decodeConfig(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted config's encoding: %v\n%s", err, enc)
		}
		if again != c {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, again)
		}
	})
}
