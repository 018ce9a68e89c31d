package eventsim

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// The queue's one property: whichever tier holds an event and however far
// apart the instants are, events run in (instant, schedule-call index) order.
// These tests run seeded plans against an independent reference — a stable
// sort of every schedule call by instant — and check the clock, Pending and
// Processed at every event and after every Run against what the calls and
// the execution log imply. Nothing in the reference goes through the engine's queue.

// The plans derive everything from hashed labels. Half the delays fall on a
// coarse grid — zero included — so same-instant events pile up and the
// schedule order decides; the other half are log-uniform from 1 ns to 2^40 ns,
// so the heap's instants differ from each other in low and high bits alike.
const tieGrid = 250 * time.Nanosecond

// tieNode is one planned event: its schedule-call index, a label its
// children's are hashed from, and its remaining depth.
type tieNode struct {
	id    int
	label uint64
	depth int
}

// tieMix is SplitMix64.
func tieMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tieDelay draws a delay from hash h: 0 to 8 grid steps, or log-uniform in
// [1 ns, 2^40 ns).
func tieDelay(h uint64) time.Duration {
	if h&1 == 0 {
		return time.Duration(h>>8%9) * tieGrid
	}
	exp := h >> 8 % 40
	return time.Duration(1<<exp + h>>16&(1<<exp-1))
}

// queuePlan drives one bare Engine and records every schedule call and every
// execution.
type queuePlan struct {
	t      *testing.T
	seed   uint64
	e      *Engine
	kind   Kind                            // payload: the *tieNode
	fn     Kind                            // payload: a func() closing over the *tieNode
	fanout func(nd *tieNode, h uint64) int // schedule calls nd makes when it runs
	calls  []simtime.Time                  // instant of each schedule call, in call order
	ran    []int                           // call index of each executed event, in order
}

func newQueuePlan(t *testing.T, seed uint64, fanout func(nd *tieNode, h uint64) int) *queuePlan {
	p := &queuePlan{t: t, seed: seed, e: New(), fanout: fanout}
	p.kind = p.e.RegisterKind(func(a, _ any) { p.exec(a.(*tieNode)) })
	p.fn = fnKind(p.e)
	return p
}

// schedule makes one schedule call, of either kind by label.
func (p *queuePlan) schedule(label uint64, depth int, at simtime.Time) {
	nd := &tieNode{id: len(p.calls), label: label, depth: depth}
	p.calls = append(p.calls, at)
	if label&1 == 0 {
		p.e.AtKind(at, p.kind, nd, nil)
	} else {
		p.e.AtKind(at, p.fn, func() { p.exec(nd) }, nil)
	}
}

// exec runs one planned event: the clock must be at its instant, and Pending
// and Processed must count the calls not yet run and the ones that have.
func (p *queuePlan) exec(nd *tieNode) {
	if now := p.e.Now(); now != p.calls[nd.id] {
		p.t.Fatalf("seed %d: call %d ran with the clock at %v, scheduled for %v", p.seed, nd.id, now, p.calls[nd.id])
	}
	p.ran = append(p.ran, nd.id)
	if p.e.Pending() != len(p.calls)-len(p.ran) || p.e.Processed() != uint64(len(p.ran)) {
		p.t.Fatalf("seed %d: Pending/Processed = %d/%d with %d scheduled and %d executed",
			p.seed, p.e.Pending(), p.e.Processed(), len(p.calls), len(p.ran))
	}
	if nd.depth <= 0 {
		return
	}
	h := tieMix(p.seed ^ nd.label)
	for c := range p.fanout(nd, h) {
		d := tieDelay(tieMix(h + uint64(c)))
		p.schedule(tieMix(nd.label+uint64(c)+1), nd.depth-1, p.e.Now().Add(d))
	}
}

// run drains the engine with Run and checks what it left behind: an empty
// queue, a count that matches the log, and the clock at the last executed
// instant (where it was, if nothing ran).
func (p *queuePlan) run() {
	p.t.Helper()
	before, clock := len(p.ran), p.e.Now()
	if n := p.e.Run(); n != uint64(len(p.ran)-before) {
		p.t.Fatalf("seed %d: Run reported %d events, %d ran", p.seed, n, len(p.ran)-before)
	}
	if p.e.Pending() != 0 || len(p.ran) != len(p.calls) {
		p.t.Fatalf("seed %d: %d of %d calls executed, %d pending", p.seed, len(p.ran), len(p.calls), p.e.Pending())
	}
	if len(p.ran) > before {
		clock = p.calls[p.ran[len(p.ran)-1]]
	}
	if p.e.Now() != clock {
		p.t.Fatalf("seed %d: clock %v after Run, want %v", p.seed, p.e.Now(), clock)
	}
}

// verify requires the execution log to equal the calls stably sorted by
// instant.
func (p *queuePlan) verify() {
	p.t.Helper()
	want := make([]int, len(p.calls))
	for i := range want {
		want[i] = i
	}
	slices.SortStableFunc(want, func(i, j int) int { return cmp.Compare(p.calls[i], p.calls[j]) })
	for i := range want {
		if p.ran[i] != want[i] {
			p.t.Fatalf("seed %d: position %d ran call %d at %v, want call %d at %v",
				p.seed, i, p.ran[i], p.calls[p.ran[i]], want[i], p.calls[want[i]])
		}
	}
}

// ties counts executions at the same instant as the one before.
func (p *queuePlan) ties() int {
	n := 0
	for i := 1; i < len(p.ran); i++ {
		if p.calls[p.ran[i]] == p.calls[p.ran[i-1]] {
			n++
		}
	}
	return n
}

// runQueuePlan drives one Engine through every way its queue is used: setup
// in or out of time order with ties, after an idle Run or not, drained by a
// Run that interleaves the backlog with the heap, then schedule calls between
// runs, each drained by a Run of its own — both kinds mixed throughout; each
// event makes up to three schedule calls.
func runQueuePlan(t *testing.T, seed uint64) *queuePlan {
	p := newQueuePlan(t, seed, func(_ *tieNode, h uint64) int { return int(h % 4) })
	ctr := uint64(0)
	draw := func(n uint64) uint64 { ctr++; return tieMix(seed<<20+ctr) % n }

	// setup schedules n roots at grid instants offset from the clock.
	setup := func(n int, sorted bool) {
		ats := make([]simtime.Time, n)
		for i := range ats {
			ats[i] = p.e.Now().Add(time.Duration(draw(10)) * tieGrid)
		}
		if sorted {
			slices.Sort(ats)
		}
		for _, at := range ats {
			p.schedule(tieMix(seed^draw(1<<40)), 4, at)
		}
	}

	// Every fifth seed runs the empty engine first: a Run that executes
	// nothing leaves it in setup. Every third sets up in time order (the
	// backlog is never sorted).
	if seed%5 == 0 {
		p.run()
	}
	setup(30, seed%3 == 0)
	if p.e.PeakHeap() != 0 || p.e.Backlog() != 30 || p.e.Pending() != 30 {
		t.Fatalf("seed %d: setup put %d events in the heap and %d in the backlog, want 0 and 30", seed, p.e.PeakHeap(), p.e.Backlog())
	}
	p.run()
	setup(10, false)
	p.run()
	setup(5, seed%2 == 0)
	p.run()
	p.verify()
	return p
}

// TestPropertyQueueOrderMatchesSort runs the phased plans.
func TestPropertyQueueOrderMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		p := runQueuePlan(t, seed)
		if len(p.ran) < 50 || p.ties() == 0 {
			t.Fatalf("seed %d: degenerate plan (%d events, %d ties)", seed, len(p.ran), p.ties())
		}
		// Setup after a Run that executed something goes to the heap.
		if p.e.Backlog() != 30 {
			t.Fatalf("seed %d: backlog took %d events, want the 30 set up before the first Run", seed, p.e.Backlog())
		}
	}
}

// TestPropertyManyInFlight holds more than 10 000 events in the heap at once:
// one setup root schedules 12 000 children, each of which schedules up to
// two more, beside a hundred setup roots spread log-uniformly up to 2^40 ns
// that interleave the backlog with the heap.
func TestPropertyManyInFlight(t *testing.T) {
	const wide = 12_000
	for seed := uint64(1); seed <= 3; seed++ {
		p := newQueuePlan(t, seed, func(nd *tieNode, h uint64) int {
			if nd.depth == 2 {
				return wide
			}
			return int(h % 3)
		})
		p.schedule(0, 2, 0)
		for i := range 100 {
			h := tieMix(seed<<32 + uint64(i))
			p.schedule(h, 1, simtime.Time(tieDelay(h|1)))
		}
		p.run()
		p.verify()
		if p.e.PeakHeap() < 10_000 || p.ties() == 0 {
			t.Fatalf("seed %d: peak heap %d, %d ties; the plan lost its wide case", seed, p.e.PeakHeap(), p.ties())
		}
	}
}

// TestBacklogSlotsReleased checks that a consumed backlog slot does not keep
// its payload reachable and that the drained backlog is let go whole.
func TestBacklogSlotsReleased(t *testing.T) {
	e := New()
	first := true
	k := e.RegisterKind(func(_, _ any) {
		if !first {
			return
		}
		first = false
		if e.backlog[0] != (event{}) {
			t.Fatalf("consumed backlog slot still holds %+v", e.backlog[0])
		}
		if e.Pending() != 1 || e.Backlog() != 2 {
			t.Fatalf("Pending/Backlog = %d/%d while the first of two setup events runs, want 1/2", e.Pending(), e.Backlog())
		}
	})
	payload := new(int)
	e.AtKind(1, k, payload, nil)
	e.AtKind(2, k, payload, nil)
	e.Run()
	if e.backlog != nil || e.Pending() != 0 {
		t.Fatalf("drained backlog not released (len %d, pending %d)", len(e.backlog), e.Pending())
	}
	if e.PeakHeap() != 0 {
		t.Fatalf("peak heap %d for a setup-only run, want 0", e.PeakHeap())
	}
}

// TestHeapSlotsRecycled checks that a released heap slot keeps no payload
// and is reused: the pool grows to the in-flight peak and no further, however
// far apart the instants are.
func TestHeapSlotsRecycled(t *testing.T) {
	e := New()
	hits := 0
	var k Kind
	k = e.RegisterKind(func(a, _ any) {
		hits++
		if hits < 1000 {
			// Delays from 1 ns to 2^39 ns file events in every bucket.
			e.AfterKind(time.Duration(1)<<(hits%40), k, a, nil)
		}
	})
	e.AtKind(0, k, new(int), nil)
	e.AtKind(1, k, new(int), nil)
	e.Run()
	if hits != 1001 || e.PeakHeap() != 2 {
		t.Fatalf("ran %d events with peak heap %d, want 1001 and 2", hits, e.PeakHeap())
	}
	if len(e.slots) != 1+e.PeakHeap() {
		t.Fatalf("slot pool holds %d slots for a peak of %d in flight", len(e.slots)-1, e.PeakHeap())
	}
	for i, s := range e.slots {
		if s != (event{}) {
			t.Fatalf("released slot %d still holds %+v", i, s)
		}
	}
}
