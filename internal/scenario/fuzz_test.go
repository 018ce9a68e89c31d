package scenario

import (
	"bytes"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
)

// FuzzDecodeSpecJSON is the robustness target for the spec file format: on
// arbitrary bytes DecodeJSON must return a validated Spec or an error, never
// panic, and a spec it accepts must describe the same scenario after
// EncodeJSON -> DecodeJSON — the round trip `scenario -describe` followed by
// `scenario -spec` makes. "The same" is compared on the encodings, which
// carry every field, because an explicit empty list decodes to an empty
// slice and re-decodes as a nil one. An accepted spec must also build an
// injection scheme its senders accept.
func FuzzDecodeSpecJSON(f *testing.F) {
	// Spec files written for the deleted multi-lane engine keep decoding.
	legacy := DefaultSpec()
	legacy.Engine, legacy.Partitions = EngineParallel, 2
	// The localization experiment's faulty pass (experiments L1): every flow
	// from one ToR, one hop-delay fault held for the whole run.
	l1 := DefaultSpec()
	l1.Workload = WorkloadSpec{Pattern: PatternHotspot, HotspotSkew: 1, LoadFrac: 0.6, DestPod: 3}
	l1.Deploy.StaticN, l1.Deploy.Estimators = 40, []string{"rli"}
	l1.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, Extra: 300 * time.Microsecond, End: l1.Duration}}
	seeds := []Spec{legacy, l1}
	for _, sc := range All() {
		seeds = append(seeds, sc.Spec)
	}
	// The tandem's deployment values: each interpolation variant, each clock
	// shape (A2, A3), the uninstrumented run, and "none" on a fat-tree, which
	// Validate rejects.
	tandem, err := TandemSpec("small")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"linear", "left", "right", "nearest"} {
		s := tandem
		s.Deploy.Interpolation = name
		seeds = append(seeds, s)
	}
	for _, c := range []ClockSpec{
		{},
		{Offset: 10 * time.Microsecond},
		{Offset: time.Microsecond, DriftPPM: 10},
		{DriftPPM: 10, SyncInterval: 100 * time.Millisecond, SyncJitter: 500 * time.Nanosecond},
	} {
		s := tandem
		s.Deploy.ReceiverClock = &c
		seeds = append(seeds, s)
	}
	bare := tandem
	bare.Deploy.Scheme = SchemeNone
	ftNone := DefaultSpec()
	ftNone.Deploy.Scheme = SchemeNone
	seeds = append(seeds, bare, ftNone)
	// A fat-tree whose adaptive senders each read a meter on their own port.
	ftAdaptive := DefaultSpec()
	ftAdaptive.Workload.LoadFrac = 0.95
	ftAdaptive.Deploy.Scheme = SchemeAdaptive
	seeds = append(seeds, ftAdaptive)
	// One adaptive gap set, the other left to its default: both validated
	// and then panicked in the sender before Validate checked the built
	// scheme.
	for _, gaps := range [][2]int{{0, 5}, {400, 0}} {
		s := tandem
		s.Deploy.Scheme = SchemeAdaptive
		s.Deploy.MinGap, s.Deploy.MaxGap = gaps[0], gaps[1]
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		data, err := s.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Pod 0 is the value the decoder's -1 "last pod" default must not swallow.
	f.Add([]byte(`{"version":1,"topology":{"kind":"fattree","k":4,"link_bps":1e9},"workload":{"load_frac":0.5,"dest_pod":0},"deploy":{"scheme":"static"},"duration_ns":1000000,"seed":1,"engine":"sequential"}`))
	f.Add([]byte(`{"version":1,"topology":{"kind":"tandem","link_bps":1e9},"workload":{"load_frac":0.5},"deploy":{},"duration_ns":1000000,"engine":"parallel"}`))
	f.Add([]byte(`{"version":1,"faults":[],"estimators":[]}`))
	f.Add([]byte("{"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeJSON(data)
		if err != nil {
			return
		}
		enc, err := s.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of an accepted spec: %v", err)
		}
		again, err := DecodeJSON(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted spec's encoding: %v\n%s", err, enc)
		}
		enc2, err := again.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, enc2)
		}
		switch sch := s.scheme().(type) {
		case core.Adaptive:
			if err := sch.Validate(); err != nil {
				t.Fatalf("accepted spec builds a bad scheme: %v\n%s", err, enc)
			}
		case core.Static:
			if sch.N < 1 {
				t.Fatalf("accepted spec builds static N=%d\n%s", sch.N, enc)
			}
		}
	})
}
