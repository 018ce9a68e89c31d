package scenario

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// The fat-tree runner is five stages over one run state; these tests drive
// the stages one at a time, which the single 540-line runner never allowed.

// TestBuildInstrumentAttachesDeployment checks that build + instrument wire
// exactly the deployment Spec.Instances budgets — §3.1's senders at ToR
// uplinks and core down-ports, receivers at cores and monitored ToRs — as
// taps only, every receiver and estimator through the plane's passive queue:
// no event is scheduled or run.
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
		r, err := buildFatTree(tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		if err := r.instrument(nil); err != nil {
			t.Fatalf("%s: instrument: %v", tc.name, err)
		}
		if len(r.senders) != tc.senders || len(r.routers) != tc.receivers || len(r.endPorts) != tc.endTaps {
			t.Errorf("%s: senders/receivers/end taps = %d/%d/%d, want %d/%d/%d", tc.name,
				len(r.senders), len(r.routers), len(r.endPorts), tc.senders, tc.receivers, tc.endTaps)
		}
		if got := len(r.senders) + len(r.routers); got != tc.spec.Instances() {
			t.Errorf("%s: attached %d instances, Spec.Instances budgets %d", tc.name, got, tc.spec.Instances())
		}
		rlis := 0
		for _, rr := range r.routers {
			if rr.rli != nil {
				rlis++
			}
		}
		if rlis != len(r.monitored) || len(r.countings) != len(r.monitored) {
			t.Errorf("%s: %d RLI receivers / %d audits for %d monitored ToRs", tc.name,
				rlis, len(r.countings), len(r.monitored))
		}
		// Every receiver and estimator tap is passive: one per core
		// receiver, one shared by the segment-start ports, one per monitored
		// ToR's segment end.
		if want := len(r.routers) - rlis + 1 + len(r.monitored); len(r.plane.taps) != want {
			t.Errorf("%s: %d passive taps, want %d", tc.name, len(r.plane.taps), want)
		}
		if eng := r.nw.Engine(); eng.Pending() != 0 || eng.Processed() != 0 {
			t.Errorf("%s: instrumenting scheduled %d events and ran %d", tc.name, eng.Pending(), eng.Processed())
		}
	}
}

// TestBuildSchedulesNothing checks that every registered fat-tree scenario —
// link-degrade and hop-delay fault windows, the compromised switch and
// link-trace replay among them — is built and instrumented as hooks and
// taps: the engine holds no event until the workload is injected.
func TestBuildSchedulesNothing(t *testing.T) {
	if sc, ok := Get("degraded-link"); !ok || len(sc.Spec.Faults) == 0 {
		t.Fatal("degraded-link is no longer registered with a fault; the test lost its case")
	}
	for _, sc := range All() {
		if sc.Spec.Topology.Kind == TopoTandem {
			continue
		}
		r, err := buildFatTree(sc.Spec, 1)
		if err != nil {
			t.Fatalf("%s: build: %v", sc.Name, err)
		}
		if err := r.instrument(nil); err != nil {
			t.Fatalf("%s: instrument: %v", sc.Name, err)
		}
		if n := r.nw.Engine().Pending(); n != 0 {
			t.Errorf("%s: build + instrument left %d events pending", sc.Name, n)
		}
	}
}

// TestFatTreeAdaptiveSendersAreMetered runs the fat-tree base spec with
// adaptive senders at 95% load: each sender reads a meter on its own port, so
// a downstream sender on a busy core down-port widens its gap past MinGap
// and injects fewer than Counted/MinGap references. An unmetered sender sits
// at MinGap and injects exactly that many.
func TestFatTreeAdaptiveSendersAreMetered(t *testing.T) {
	spec := DefaultSpec()
	spec.Workload.LoadFrac = 0.95
	spec.Deploy.Scheme = SchemeAdaptive
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := buildFatTree(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(nil); err != nil {
		t.Fatal(err)
	}
	r.inject()
	r.run()
	if _, err := r.harvest(); err != nil {
		t.Fatal(err)
	}
	minGap := uint64(spec.scheme().(core.Adaptive).MinGap)
	widened := 0
	for _, s := range r.senders {
		c := s.Counters()
		if s.ID() >= downstreamSenderID(spec.half(), 0, 0) && c.Events < c.Counted/minGap {
			widened++
		}
	}
	if widened == 0 {
		t.Fatal("no downstream sender's gap ever exceeded MinGap: the adaptive senders are unmetered")
	}
}

// TestInjectSchedulesDenseIDs checks the inject stage on a replicated
// workload: one pending event, the source's, until the run pulls the rest;
// two packets per pair-log entry; and packet IDs that are the network-wide
// dense counter in generation order (the adversary's PredictPeriodic and the
// pair log both read them).
func TestInjectSchedulesDenseIDs(t *testing.T) {
	sc, ok := Get("repflow")
	if !ok {
		t.Fatal("repflow not registered")
	}
	r, err := buildFatTree(sc.Spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(nil); err != nil {
		t.Fatal(err)
	}
	r.inject()
	if pending := r.nw.Engine().Pending(); pending != 1 || r.injected != 2 {
		t.Fatalf("inject left %d events pending and generated %d packets, want the source's one event and the first pair", pending, r.injected)
	}
	r.run()
	if len(r.repPairs) == 0 || r.injected != 2*len(r.repPairs) {
		t.Fatalf("injected %d packets for %d replicated pairs", r.injected, len(r.repPairs))
	}
	for i, pr := range r.repPairs {
		if pr.orig != uint64(2*i+1) || pr.rep != uint64(2*i+2) {
			t.Fatalf("pair %d carries IDs %d/%d, want %d/%d: IDs are not the dense generation order", i, pr.orig, pr.rep, 2*i+1, 2*i+2)
		}
	}
	if next := r.nw.NewPacketID(); next != uint64(r.injected)+1 {
		t.Errorf("next packet ID %d after %d injections", next, r.injected)
	}
}

// TestLinkTraceDropsArePureInPacketID replays trace-replay at a seed where
// the emulated link drops reference packets as well as regular ones, logs
// every (packet ID, instant) the link was asked about, and then recomputes
// the drops from the log alone, in reverse order: the link's behaviour is a
// function of (ID, seed, instant) and nothing else, for both ID spaces — the
// dense injected IDs and the per-node IDs RLI senders mint.
func TestLinkTraceDropsArePureInPacketID(t *testing.T) {
	sc, ok := Get("trace-replay")
	if !ok {
		t.Fatal("trace-replay not registered")
	}
	const seed = 6
	r, err := buildFatTree(sc.Spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(nil); err != nil {
		t.Fatal(err)
	}
	type ask struct {
		id uint64
		at time.Duration
	}
	var asks []ask
	emuSeed := trace.SplitMix64(uint64(seed) ^ linkTraceSeedSalt)
	r.emuPort.SetEmulator(func(pk *packet.Packet, now simtime.Time) (time.Duration, bool) {
		asks = append(asks, ask{pk.ID, now.Duration()})
		return r.emuTrace.Emulate(pk.ID, emuSeed, now.Duration())
	})
	r.inject()
	r.run()
	res, err := r.harvest()
	if err != nil {
		t.Fatal(err)
	}

	var drops, refDrops, regular uint64
	for i := len(asks) - 1; i >= 0; i-- {
		minted := asks[i].id >= 1<<40
		if !minted {
			regular++
		}
		if _, drop := r.emuTrace.Emulate(asks[i].id, emuSeed, asks[i].at); drop {
			drops++
			if minted {
				refDrops++
			}
		}
	}
	if drops != res.LinkTrace.Drops {
		t.Errorf("recomputed %d drops from the (ID, instant) log, the run counted %d", drops, res.LinkTrace.Drops)
	}
	if refDrops == 0 || regular == 0 {
		t.Errorf("link saw %d regular packets and dropped %d reference packets; the seed no longer exercises both ID spaces", regular, refDrops)
	}
}
