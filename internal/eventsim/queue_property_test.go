package eventsim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// The two-tier queue's one property: splitting setup-scheduled events into a
// sorted backlog changes nothing an observer can see. These tests run seeded
// plans twice — once as is, once on the heap-only reference, where the
// backlog is emptied into the heap before every run call — and require the
// same execution log, clock, Pending and Processed at every checkpoint.

// The plans derive everything from hashed labels, so both runs of a seed
// compute the same schedule, and put every instant on a coarse grid — zero
// delays included — so same-instant events pile up and the (ord, k) tie
// order decides.
const tieGrid = 250 * time.Nanosecond

// tieNode is one planned event: a unique label and its remaining depth.
type tieNode struct {
	label uint64
	depth int
}

// tieEntry is one executed event as observed by the log.
type tieEntry struct {
	label uint64
	at    simtime.Time
}

// tieMix is SplitMix64.
func tieMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tieActions derives the schedule calls an event makes: up to three
// children, each 0 to 8 grid steps later.
func tieActions(seed uint64, nd *tieNode, visit func(child *tieNode, d time.Duration)) {
	if nd.depth <= 0 {
		return
	}
	h := tieMix(seed ^ nd.label)
	n := int(h % 4)
	for c := 0; c < n; c++ {
		d := time.Duration(tieMix(h+uint64(c))>>8%9) * tieGrid
		visit(&tieNode{label: tieMix(nd.label + uint64(c) + 1), depth: nd.depth - 1}, d)
	}
}

// heapOnly moves e's backlog into its heap: the single-queue engine the
// two-tier one must be indistinguishable from.
func heapOnly(e *Engine) {
	for _, ev := range e.backlog[e.head:] {
		e.push(ev)
	}
	e.backlog, e.head, e.unsorted = nil, 0, false
}

// queueTrace is everything one phased run lets an observer see.
type queueTrace struct {
	Log       []tieEntry
	Pending   []int
	Clock     []simtime.Time
	Processed []uint64
}

// runQueuePlan drives one bare Engine through every way its queue is used:
// setup in or out of time order with ties, a RunUntil that may execute
// nothing, setup resumed after it, a Run cut short by Stop, Steps, schedule
// calls between runs, and a final drain — closures and typed kinds mixed
// throughout. ref selects the heap-only reference.
func runQueuePlan(t *testing.T, seed uint64, ref bool) (queueTrace, *Engine) {
	e := New()
	var tr queueTrace
	scheduled, stopAt, ctr := 0, -1, uint64(0)
	draw := func(n uint64) uint64 { ctr++; return tieMix(seed<<20+ctr) % n }

	var kind Kind
	var exec func(nd *tieNode)
	schedule := func(nd *tieNode, at simtime.Time) {
		scheduled++
		if nd.label&1 == 0 {
			e.AtKind(at, kind, nd, nil)
		} else {
			e.At(at, func() { exec(nd) })
		}
	}
	exec = func(nd *tieNode) {
		tr.Log = append(tr.Log, tieEntry{nd.label, e.Now()})
		if len(tr.Log) == stopAt {
			e.Stop()
		}
		tieActions(seed, nd, func(child *tieNode, d time.Duration) {
			schedule(child, e.Now().Add(d))
		})
	}
	kind = e.RegisterKind(func(a, _ any) { exec(a.(*tieNode)) })

	// setup schedules n roots at grid instants offset from the clock.
	setup := func(n int, offset uint64, sorted bool) {
		ats := make([]simtime.Time, n)
		for i := range ats {
			ats[i] = e.Now().Add(time.Duration(offset+draw(10)) * tieGrid)
		}
		if sorted {
			slices.Sort(ats)
		}
		for _, at := range ats {
			schedule(&tieNode{label: tieMix(seed ^ draw(1<<40)), depth: 4}, at)
		}
	}
	// checkpoint runs one engine call and records what it left behind.
	checkpoint := func(run func()) {
		if ref {
			heapOnly(e)
		}
		run()
		tr.Pending = append(tr.Pending, e.Pending())
		tr.Clock = append(tr.Clock, e.Now())
		tr.Processed = append(tr.Processed, e.Processed())
		if want := scheduled - len(tr.Log); e.Pending() != want {
			t.Fatalf("seed %d ref=%v: Pending = %d with %d scheduled and %d executed", seed, ref, e.Pending(), scheduled, len(tr.Log))
		}
	}

	// Every third seed sets up in time order (the backlog is never sorted);
	// every fifth starts late, so the first RunUntil executes nothing and the
	// resumed setup is still setup (ord 0) with the clock already advanced.
	var offset uint64
	if seed%5 == 0 {
		offset = 8
	}
	setup(30, offset, seed%3 == 0)
	checkpoint(func() {}) // setup only: nothing has run
	if !ref && (e.PeakHeap() != 0 || e.Backlog() != 30) {
		t.Fatalf("seed %d: setup put %d events in the heap and %d in the backlog, want 0 and 30", seed, e.PeakHeap(), e.Backlog())
	}
	checkpoint(func() { e.RunUntil(e.Now().Add(time.Duration(draw(7)) * tieGrid)) })
	setup(10, 0, false)
	stopAt = len(tr.Log) + 1 + int(draw(20))
	checkpoint(func() { e.Run() }) // Stop cuts it short
	stopAt = -1
	checkpoint(func() { e.Step(); e.Step() })
	setup(5, 0, seed%2 == 0)
	checkpoint(func() { e.Run() })
	if e.Pending() != 0 {
		t.Fatalf("seed %d ref=%v: %d events left after the final Run", seed, ref, e.Pending())
	}
	return tr, e
}

// TestPropertyTwoTierEqualsHeapOnly compares phased runs on one engine.
func TestPropertyTwoTierEqualsHeapOnly(t *testing.T) {
	resumedAsSetup := 0
	for seed := uint64(1); seed <= 60; seed++ {
		got, e := runQueuePlan(t, seed, false)
		want, _ := runQueuePlan(t, seed, true)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got.Log), len(want.Log)) {
				if got.Log[i] != want.Log[i] {
					t.Fatalf("seed %d: order diverges at event %d: got %+v, heap-only %+v", seed, i, got.Log[i], want.Log[i])
				}
			}
			t.Fatalf("seed %d: checkpoints differ:\n two-tier  %+v %v %v\n heap-only %+v %v %v", seed,
				got.Pending, got.Clock, got.Processed, want.Pending, want.Clock, want.Processed)
		}
		ties := 0
		for i := 1; i < len(got.Log); i++ {
			if got.Log[i].at == got.Log[i-1].at {
				ties++
			}
		}
		if len(got.Log) < 50 || ties == 0 {
			t.Fatalf("seed %d: degenerate plan (%d events, %d ties)", seed, len(got.Log), ties)
		}
		// Setup resumed after a RunUntil that executed something (ord != 0)
		// must have gone to the heap, not the backlog.
		switch {
		case got.Processed[1] == 0 && e.Backlog() == 40:
			resumedAsSetup++
		case got.Processed[1] == 0 || e.Backlog() != 30:
			t.Fatalf("seed %d: backlog took %d events with %d executed before the resumed setup", seed, e.Backlog(), got.Processed[1])
		}
	}
	if resumedAsSetup == 0 {
		t.Fatal("no plan resumed setup before the first event ran; the test lost a case")
	}
}

// TestBacklogSlotsReleased checks that a consumed backlog slot does not keep
// its payload reachable and that the drained backlog is let go whole.
func TestBacklogSlotsReleased(t *testing.T) {
	e := New()
	k := e.RegisterKind(func(_, _ any) {})
	payload := new(int)
	e.AtKind(1, k, payload, nil)
	e.AtKind(2, k, payload, nil)
	if !e.Step() || e.backlog[0] != (event{}) {
		t.Fatalf("consumed backlog slot still holds %+v", e.backlog[0])
	}
	if e.Pending() != 1 || e.Backlog() != 2 {
		t.Fatalf("Pending/Backlog = %d/%d after one of two setup events ran, want 1/2", e.Pending(), e.Backlog())
	}
	e.Run()
	if e.backlog != nil || e.Pending() != 0 {
		t.Fatalf("drained backlog not released (len %d, pending %d)", len(e.backlog), e.Pending())
	}
	if e.PeakHeap() != 0 {
		t.Fatalf("peak heap %d for a setup-only run, want 0", e.PeakHeap())
	}
}
