package scenario

import (
	"reflect"
	"testing"
)

// The fat-tree runner is five stages over one run state; these tests drive
// the stages one at a time, which the single 540-line runner never allowed.

// withLanes selects the engine the way a spec does.
func withLanes(spec Spec, lanes int) Spec {
	if lanes > 1 {
		spec.Engine, spec.Partitions = EngineParallel, lanes
	}
	return spec
}

// TestBuildInstrumentAttachesDeployment checks that build + instrument wire
// exactly the deployment Spec.Instances budgets — §3.1's senders at ToR
// uplinks and core down-ports, receivers at cores and monitored ToRs — as
// taps only: no event is scheduled or run.
func TestBuildInstrumentAttachesDeployment(t *testing.T) {
	allpairs := DefaultSpec()
	allpairs.Workload.Pattern = PatternAllPairs
	for _, tc := range []struct {
		name                        string
		spec                        Spec
		senders, receivers, endTaps int
	}{
		// k=4, h=2: 3 source pods x 2 ToRs x 2 uplinks + 4 core down-ports;
		// 4 cores + 1 monitored ToR; 2 host ports under it.
		{"converging", DefaultSpec(), 12 + 4, 4 + 1, 2},
		// Every ToR sends and is monitored: 4x2x2 uplinks + 4 cores x 4 pods;
		// 4 cores + 8 ToRs; 8 x 2 host ports.
		{"allpairs", allpairs, 16 + 16, 4 + 8, 16},
	} {
		for _, lanes := range []int{1, 2} {
			r, err := buildFatTree(withLanes(tc.spec, lanes), 1)
			if err != nil {
				t.Fatalf("%s: build: %v", tc.name, err)
			}
			if err := r.instrument(nil); err != nil {
				t.Fatalf("%s: instrument: %v", tc.name, err)
			}
			if len(r.senders) != tc.senders || len(r.routers) != tc.receivers || len(r.endPorts) != tc.endTaps {
				t.Errorf("%s lanes=%d: senders/receivers/end taps = %d/%d/%d, want %d/%d/%d", tc.name, lanes,
					len(r.senders), len(r.routers), len(r.endPorts), tc.senders, tc.receivers, tc.endTaps)
			}
			if got := len(r.senders) + len(r.routers); got != tc.spec.Instances() {
				t.Errorf("%s lanes=%d: attached %d instances, Spec.Instances budgets %d", tc.name, lanes, got, tc.spec.Instances())
			}
			if len(r.rlis) != len(r.monitored) || len(r.countings) != len(r.monitored) {
				t.Errorf("%s lanes=%d: %d RLI receivers / %d audits for %d monitored ToRs", tc.name, lanes,
					len(r.rlis), len(r.countings), len(r.monitored))
			}
			for l := 0; l < r.pe.Lanes(); l++ {
				if n := r.pe.Lane(l).Pending(); n != 0 {
					t.Errorf("%s lanes=%d: instrumenting scheduled %d events on lane %d", tc.name, lanes, n, l)
				}
			}
			if r.pe.Processed() != 0 {
				t.Errorf("%s lanes=%d: %d events ran before the run stage", tc.name, lanes, r.pe.Processed())
			}
		}
	}
}

// TestInjectIdenticalAcrossLanes checks that injection — packet IDs, the
// replication pair log, and what lands in the event heaps in total — does
// not depend on how the topology is partitioned.
func TestInjectIdenticalAcrossLanes(t *testing.T) {
	sc, ok := Get("repflow")
	if !ok {
		t.Fatal("repflow not registered")
	}
	var want *fatTreeRun
	for _, lanes := range []int{1, 2, 4} {
		r, err := buildFatTree(withLanes(sc.Spec, lanes), 3)
		if err != nil {
			t.Fatal(err)
		}
		r.inject()
		if len(r.repPairs) == 0 || r.injected != 2*len(r.repPairs) {
			t.Fatalf("lanes=%d: injected %d packets for %d replicated pairs", lanes, r.injected, len(r.repPairs))
		}
		pending := 0
		for l := 0; l < r.pe.Lanes(); l++ {
			pending += r.pe.Lane(l).Pending()
		}
		if pending != r.injected {
			t.Errorf("lanes=%d: %d events pending for %d injected packets", lanes, pending, r.injected)
		}
		if next := r.nw.NewPacketID(); next != uint64(r.injected)+1 {
			t.Errorf("lanes=%d: next packet ID %d after %d injections; IDs are not the dense injection order", lanes, next, r.injected)
		}
		if want == nil {
			want = r
			continue
		}
		if r.injected != want.injected || !reflect.DeepEqual(r.repPairs, want.repPairs) ||
			!reflect.DeepEqual(r.repWanted, want.repWanted) {
			t.Errorf("lanes=%d: injection differs from lanes=1", lanes)
		}
	}
}

// TestLinkTraceDropsIndependentOfLanes pins what building every run on one
// engine type bought: the link emulator's keyed drop decision reads packet
// IDs, and reference packets used to draw theirs from a different ID space
// on the sequential engine than on the partitioned one, so trace-replay
// diverged between engines at seeds where a reference packet's drop flipped
// (seed 6 is one).
func TestLinkTraceDropsIndependentOfLanes(t *testing.T) {
	sc, ok := Get("trace-replay")
	if !ok {
		t.Fatal("trace-replay not registered")
	}
	want, err := RunSeed(sc.Spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	normalizeEngine(want)
	got, err := RunSeed(withLanes(sc.Spec, 2), 6)
	if err != nil {
		t.Fatal(err)
	}
	normalizeEngine(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace-replay at seed 6: two-lane Result differs from one-lane (drops %d vs %d)",
			got.LinkTrace.Drops, want.LinkTrace.Drops)
	}
}
