package scenario

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// waitGoroutines fails t unless the goroutine count falls back to base: a
// goroutine that has signalled its exit may still be counted for a moment.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, baseline %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlanePassiveOrderAndCopy pins the passive queue's contract: two taps
// interleaved across several chunk hand-offs see exactly the push order;
// each sees the packet as it was at tap time although the caller re-stamps
// SegmentStart, overwrites TOS, records and rewrites hops and then reuses
// the packet; a tap's panic is re-raised on the caller at drain with its
// value; and no run — drained, panicked or failed while instrumenting —
// leaves a goroutine behind.
func TestPlanePassiveOrderAndCopy(t *testing.T) {
	base := runtime.NumGoroutine()

	type obs struct {
		tap     int
		id      uint64
		at, seg simtime.Time
		tos     uint8
		hops    []int32
	}
	var got, want []obs
	p := &plane{}
	observer := func(i int) measure.TapFunc {
		return func(pk *packet.Packet, at simtime.Time) {
			got = append(got, obs{i, pk.ID, at, pk.SegmentStart, pk.TOS, slices.Clone(pk.Hops)})
		}
	}
	taps := []measure.TapFunc{p.passive(observer(0)), p.passive(observer(1))}
	const n = 3*planeChunk + planeChunk/2 // three full hand-offs and a partial one at drain
	p.run(func() {
		var pk packet.Packet
		for i := range n {
			pk = packet.Packet{ID: uint64(i), TOS: uint8(i), SegmentStart: simtime.Time(i)}
			for h := range i % 5 {
				pk.RecordHop(int32(i + h))
			}
			tap := i % 3 % 2 // 0, 1, 0, 0, 1, 0, ...
			at := simtime.Time(10 * i)
			want = append(want, obs{tap, pk.ID, at, pk.SegmentStart, pk.TOS, slices.Clone(pk.Hops)})
			taps[tap](&pk, at)
			pk.SegmentStart, pk.TOS = -1, 0xff
			pk.RecordHop(-1)
			pk.Hops[0] = -2
		}
	})
	if len(got) != n || !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d: tap saw %+v, pushed %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("taps saw %d records, %d were pushed", len(got), n)
	}
	waitGoroutines(t, base, "a drained run")

	boom := errors.New("tap failed")
	calls := 0
	p = &plane{}
	failing := p.passive(func(*packet.Packet, simtime.Time) {
		if calls++; calls == planeChunk+3 {
			panic(boom)
		}
	})
	raised := func() (v any) {
		defer func() { v = recover() }()
		p.run(func() {
			var pk packet.Packet
			for range planeChunks * planeChunk * 3 { // more than the chunks a stuck consumer could hold
				failing(&pk, 0)
			}
		})
		return nil
	}()
	if raised != boom {
		t.Fatalf("run re-raised %v, want the tap's panic %v", raised, boom)
	}
	if calls != planeChunk+3 {
		t.Errorf("taps ran %d times, want %d: records after the panic must not run", calls, planeChunk+3)
	}
	waitGoroutines(t, base, "a tap panic")

	ft := DefaultSpec()
	ft.Deploy.Estimators = []string{"rli", "no-such-estimator"}
	if _, err := runFatTree(ft, 1, nil); err == nil {
		t.Fatal("fat-tree run with an unknown estimator succeeded")
	}
	tandem, err := TandemSpec("small")
	if err != nil {
		t.Fatal(err)
	}
	tandem.Deploy.Estimators = ft.Deploy.Estimators
	if _, err := runTandem(tandem, 1, nil); err == nil {
		t.Fatal("tandem run with an unknown estimator succeeded")
	}
	waitGoroutines(t, base, "instrument errors")
}

// TestZeroAllocPlaneSteadyState: once every chunk has made a round trip, a
// passive observation — copy, enqueue, hand-off, replay — allocates nothing.
func TestZeroAllocPlaneSteadyState(t *testing.T) {
	p := &plane{}
	var hops int
	observe := p.passive(func(pk *packet.Packet, _ simtime.Time) { hops += len(pk.Hops) })
	pk := &packet.Packet{ID: 1, Kind: packet.Regular}
	for h := range 7 { // a fat-tree path
		pk.RecordHop(int32(h))
	}
	var allocs float64
	p.run(func() {
		for range 2 * planeChunks * planeChunk {
			observe(pk, 0)
		}
		allocs = testing.AllocsPerRun(4*planeChunk, func() { observe(pk, 0) })
	})
	if hops == 0 {
		t.Fatal("the passive tap never ran")
	}
	if allocs != 0 {
		t.Fatalf("a passive observation allocates %.2f times, want 0", allocs)
	}
}

// panicky is a baseline whose Finalize panics with its own value.
type panicky struct{ value any }

func (panicky) Name() string                     { return "panicky" }
func (panicky) Tap(*packet.Packet, simtime.Time) {}
func (b panicky) Finalize() measure.Report       { panic(b.value) }

// TestPlaneFoldJoins pins harvest's join: a baseline whose Finalize panics
// on the plane's fold goroutine is re-raised on the harvest's caller with
// its value, a fleet re-scoring that fails after the join returns its
// error, and neither leaves a goroutine behind — the fold's, the
// collector's shards' or the fleet's.
func TestPlaneFoldJoins(t *testing.T) {
	base := runtime.NumGoroutine()

	spec := DefaultSpec()
	spec.Duration = 20 * time.Millisecond
	r, err := buildFatTree(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(newCapture()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("finalize failed")
	r.plane.baselines = append(r.plane.baselines, panicky{boom})
	r.inject()
	r.run()
	raised := func() (v any) {
		defer func() { v = recover() }()
		_, _ = r.harvest()
		return nil
	}()
	if raised != boom {
		t.Fatalf("harvest re-raised %v, want the baseline's panic %v", raised, boom)
	}
	waitGoroutines(t, base, "a Finalize panic")

	// Zero instances passes no Validate; the runners do not validate, so
	// the fleet's router refuses it after the join.
	spec.Fleet = &FleetSpec{Instances: 0}
	const refusal = "no endpoints"
	if _, err := runFatTree(spec, 1, newCapture()); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("fat-tree run with a failing fleet re-scoring returned %v, want the router's %q", err, refusal)
	}
	tandem, err := TandemSpec("small")
	if err != nil {
		t.Fatal(err)
	}
	tandem.Fleet = spec.Fleet
	if _, err := runTandem(tandem, 1, newCapture()); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("tandem run with a failing fleet re-scoring returned %v, want the router's %q", err, refusal)
	}
	waitGoroutines(t, base, "fleet errors")
}

// TestWorkloadAheadJoins pins the workload producer's lifetime: no run
// leaves a goroutine behind — one that drains normally, one whose
// instrument stage fails before the producer could start, one whose passive
// tap panics while the producer is still generating ahead, and one whose
// source panics on the producer. That panic is re-raised on the caller with
// its value at the pull that needed the record, whether it fails filling the
// first chunk (inside the first pull) or mid-run, so no run goes on with a
// truncated workload.
func TestWorkloadAheadJoins(t *testing.T) {
	base := runtime.NumGoroutine()

	spec := DefaultSpec()
	spec.Duration = 50 * time.Millisecond
	full, err := runFatTree(spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "a drained run")

	bad := spec
	bad.Deploy.Estimators = []string{"rli", "no-such-estimator"}
	if _, err := runFatTree(bad, 1, nil); err == nil {
		t.Fatal("fat-tree run with an unknown estimator succeeded")
	}
	waitGoroutines(t, base, "an instrument error")

	boom := errors.New("tap failed")
	r, err := buildFatTree(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.instrument(nil); err != nil {
		t.Fatal(err)
	}
	calls := 0
	r.ft.Cores[0][0].OnReceive(r.plane.passive(func(*packet.Packet, simtime.Time) {
		if calls++; calls == 100 {
			panic(boom)
		}
	}))
	r.inject()
	raised := func() (v any) {
		defer func() { v = recover() }()
		r.run()
		return nil
	}()
	if raised != boom {
		t.Fatalf("run re-raised %v, want the tap's panic %v", raised, boom)
	}
	if ahead := workChunks * workChunk; r.injected+ahead >= full.Injected {
		t.Fatalf("the run injected %d of %d packets before the tap's panic ended it: with %d records ahead, the producer may have finished", r.injected, full.Injected, ahead)
	}
	waitGoroutines(t, base, "a passive-tap panic mid-run")

	for _, failAt := range []int{10, 3*workChunk + 10} {
		r, err := buildFatTree(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.instrument(nil); err != nil {
			t.Fatal(err)
		}
		produce, build := r.workload()
		produced := 0 // the producer's own count
		drained := false
		raised := func() (v any) {
			defer func() { v = recover() }()
			r.plane.pull(r.nw, func(w *workRec) bool {
				if produced++; produced == failAt {
					panic(boom)
				}
				return produce(w)
			}, build)
			r.run()
			drained = true
			return nil
		}()
		if raised != boom {
			t.Fatalf("source failing at record %d: re-raised %v, want its panic %v", failAt, raised, boom)
		}
		if drained || r.injected >= failAt {
			t.Errorf("source failing at record %d: the run injected %d packets and drained %v: it went on with a truncated workload", failAt, r.injected, drained)
		}
		waitGoroutines(t, base, "a source panic")
	}
}

// TestWorkloadAheadMatchesInline holds the producer to the workload the
// simulator used to generate inline: for every fat-tree traffic pattern,
// with microbursts and with replicas, the records the network pulls through
// the plane's producer — instant, ingress host, flow key and size, in order
// — are those the workload's producer half yields when called directly.
func TestWorkloadAheadMatchesInline(t *testing.T) {
	type pulled struct {
		at   simtime.Time
		host string
		key  packet.FlowKey
		size int
	}
	for _, name := range []string{"fattree-allpairs", "incast", "hotspot", "degraded-link", "microburst", "repflow"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			spec := sc.Spec
			inline, err := buildFatTree(spec, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			produce, _ := inline.workload()
			var want []pulled
			for w := (workRec{}); produce(&w); {
				want = append(want, pulled{w.at, w.host.Name(), w.key, w.size})
			}

			r, err := buildFatTree(spec, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.instrument(nil); err != nil {
				t.Fatal(err)
			}
			produce, build := r.workload()
			var got []pulled
			r.plane.pull(r.nw, produce, func(w *workRec) (*packet.Packet, *packet.Packet) {
				got = append(got, pulled{w.at, w.host.Name(), w.key, w.size})
				return build(w)
			})
			r.run()

			if len(want) == 0 {
				t.Fatal("the workload is empty")
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("record %d: pulled %+v, inline %+v", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("pulled %d records, inline %d", len(got), len(want))
			}
			perRecord := 1
			if spec.Workload.Replicate {
				perRecord = 2
			}
			if r.injected != perRecord*len(want) {
				t.Errorf("injected %d packets for %d records", r.injected, len(want))
			}
		})
	}
}
