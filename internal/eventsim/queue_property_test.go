package eventsim

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// The queue's one property: however far apart the instants are, the next
// event to run is the least (instant, tie key) among the pending ones, the
// first scheduled among equal keys. These tests run seeded plans against an
// independent reference — a binary heap of the schedule calls ordered by
// (instant, key, call index), fed each call before the event that follows it
// runs — and check the clock, Pending and Processed at every event and after
// every Run against what the calls and the execution log imply. Nothing in
// the reference goes through the engine's queue.

// The plans derive everything from hashed labels. Half the delays fall on a
// coarse grid — zero included — so same-instant events pile up, and a
// handler schedules at its own instant with keys below, equal to and above
// its own; the other half are log-uniform from 1 ns to 2^40 ns, so the heap's
// instants differ from each other in low and high bits alike. Keys come from
// a range of four, so equal keys are common and the call order decides them.
const tieGrid = 250 * time.Nanosecond

// tieKeys is the range of the plans' tie keys.
const tieKeys = 4

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

// planCall is one schedule call: its instant and tie key.
type planCall struct {
	at  simtime.Time
	key uint64
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
	// place, if set, picks a call's instant and key from its hash in place
	// of tieDelay and a key drawn from tieKeys.
	place func(nd *tieNode, h uint64) (simtime.Time, uint64)
	calls []planCall // every schedule call, in call order
	ran   []int      // call index of each executed event, in order
	made  []int      // schedule calls made before each executed event ran
}

func newQueuePlan(t *testing.T, seed uint64, fanout func(nd *tieNode, h uint64) int) *queuePlan {
	p := &queuePlan{t: t, seed: seed, e: New(), fanout: fanout}
	p.kind = p.e.RegisterKind(func(a, _ any) { p.exec(a.(*tieNode)) })
	p.fn = fnKind(p.e)
	return p
}

// schedule makes one schedule call, of either kind by label.
func (p *queuePlan) schedule(label uint64, depth int, at simtime.Time, key uint64) {
	nd := &tieNode{id: len(p.calls), label: label, depth: depth}
	p.calls = append(p.calls, planCall{at, key})
	if label&1 == 0 {
		p.e.AtKind(at, key, p.kind, nd, nil)
	} else {
		p.e.AtKind(at, key, p.fn, func() { p.exec(nd) }, nil)
	}
}

// exec runs one planned event: the clock must be at its instant, and Pending
// and Processed must count the calls not yet run and the ones that have.
func (p *queuePlan) exec(nd *tieNode) {
	if now := p.e.Now(); now != p.calls[nd.id].at {
		p.t.Fatalf("seed %d: call %d ran with the clock at %v, scheduled for %v", p.seed, nd.id, now, p.calls[nd.id].at)
	}
	p.ran = append(p.ran, nd.id)
	p.made = append(p.made, len(p.calls))
	if p.e.Pending() != len(p.calls)-len(p.ran) || p.e.Processed() != uint64(len(p.ran)) {
		p.t.Fatalf("seed %d: Pending/Processed = %d/%d with %d scheduled and %d executed",
			p.seed, p.e.Pending(), p.e.Processed(), len(p.calls), len(p.ran))
	}
	if nd.depth <= 0 {
		return
	}
	h := tieMix(p.seed ^ nd.label)
	for c := range p.fanout(nd, h) {
		hc := tieMix(h + uint64(c))
		at, key := p.e.Now().Add(tieDelay(hc)), hc>>48%tieKeys
		if p.place != nil {
			at, key = p.place(nd, hc)
		}
		p.schedule(tieMix(nd.label+uint64(c)+1), nd.depth-1, at, key)
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
		clock = p.calls[p.ran[len(p.ran)-1]].at
	}
	if p.e.Now() != clock {
		p.t.Fatalf("seed %d: clock %v after Run, want %v", p.seed, p.e.Now(), clock)
	}
}

// refQueue is the reference: call indices ordered by (instant, key, index).
type refQueue struct {
	calls []planCall
	idx   []int
}

func (q *refQueue) Len() int { return len(q.idx) }
func (q *refQueue) Less(i, j int) bool {
	a, b := q.calls[q.idx[i]], q.calls[q.idx[j]]
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c < 0
	}
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return q.idx[i] < q.idx[j]
}
func (q *refQueue) Swap(i, j int) { q.idx[i], q.idx[j] = q.idx[j], q.idx[i] }
func (q *refQueue) Push(x any)    { q.idx = append(q.idx, x.(int)) }
func (q *refQueue) Pop() any {
	x := q.idx[len(q.idx)-1]
	q.idx = q.idx[:len(q.idx)-1]
	return x
}

// referenceOrder replays the calls through the reference: before the i-th
// execution it holds every call made before that event ran, and the event
// must be the least it holds. made[i] is that call count.
func referenceOrder(calls []planCall, made []int) []int {
	q := &refQueue{calls: calls}
	var order []int
	next := 0
	for _, m := range made {
		for ; next < m; next++ {
			heap.Push(q, next)
		}
		order = append(order, heap.Pop(q).(int))
	}
	return order
}

// verify requires the execution log to equal the reference's order.
func (p *queuePlan) verify() {
	p.t.Helper()
	want := referenceOrder(p.calls, p.made)
	for i := range want {
		if p.ran[i] != want[i] {
			p.t.Fatalf("seed %d: position %d ran call %d %+v, want call %d %+v",
				p.seed, i, p.ran[i], p.calls[p.ran[i]], want[i], p.calls[want[i]])
		}
	}
}

// ties counts executions at the same instant as the one before.
func (p *queuePlan) ties() int {
	n := 0
	for i := 1; i < len(p.ran); i++ {
		if p.calls[p.ran[i]].at == p.calls[p.ran[i-1]].at {
			n++
		}
	}
	return n
}

// runQueuePlan drives one Engine through every way its queue is used: setup
// in or out of time order with ties, after an idle Run or not, drained by a
// Run, then schedule calls between runs, each drained by a Run of its own —
// both kinds mixed throughout; each event makes up to three schedule calls.
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
			p.schedule(tieMix(seed^draw(1<<40)), 4, at, draw(tieKeys))
		}
	}

	// Every fifth seed runs the empty engine first. Every third sets up in
	// time order.
	if seed%5 == 0 {
		p.run()
	}
	setup(30, seed%3 == 0)
	if p.e.PeakHeap() != 30 || p.e.Pending() != 30 {
		t.Fatalf("seed %d: setup left %d events pending (peak %d), want 30", seed, p.e.Pending(), p.e.PeakHeap())
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
	}
}

// TestPropertyManyInFlight holds more than 10 000 events in the heap at once:
// one setup root schedules 12 000 children, each of which schedules up to
// two more, beside a hundred setup roots spread log-uniformly up to 2^40 ns
// that interleave with them.
func TestPropertyManyInFlight(t *testing.T) {
	const wide = 12_000
	for seed := uint64(1); seed <= 3; seed++ {
		p := newQueuePlan(t, seed, func(nd *tieNode, h uint64) int {
			if nd.depth == 2 {
				return wide
			}
			return int(h % 3)
		})
		p.schedule(0, 2, 0, 0)
		for i := range 100 {
			h := tieMix(seed<<32 + uint64(i))
			p.schedule(h, 1, simtime.Time(tieDelay(h|1)), h>>48%tieKeys)
		}
		p.run()
		p.verify()
		if p.e.PeakHeap() < 10_000 || p.ties() == 0 {
			t.Fatalf("seed %d: peak heap %d, %d ties; the plan lost its wide case", seed, p.e.PeakHeap(), p.ties())
		}
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
	e.AtKind(0, 0, k, new(int), nil)
	e.AtKind(1, 0, k, new(int), nil)
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

// canonEvent is one event of TestScheduleOrderIsCanonical's set: its key and
// what it schedules when it runs (0: nothing, 1: a root's children, 2: the
// child keyed below its root's).
type canonEvent struct {
	key  uint64
	role int
}

// TestScheduleOrderIsCanonical schedules one set of events in 60 random call
// orders. Root r, at an instant on a coarse grid with key 4r+2, schedules at
// its own instant a child keyed below its own (4r+1) and one above (4r+3),
// and one more 1 to 3 grid steps later (4r+3); the child keyed below
// schedules a grandchild at its instant keyed 4r. No two events share an
// (instant, key), so the rule leaves no choice to the call order: every
// permutation must run the same order, the reference's.
func TestScheduleOrderIsCanonical(t *testing.T) {
	const roots = 120
	rng := rand.New(rand.NewSource(7))
	ats := make([]simtime.Time, roots)
	keys := make([]uint64, roots)
	for r, k := range rng.Perm(roots) {
		ats[r] = simtime.Time(rng.Intn(6)) * simtime.Time(tieGrid)
		keys[r] = 4*uint64(k) + 2
	}
	run := func(order []int) (ran, want []planCall) {
		e := New()
		var calls []planCall
		var made []int
		var k Kind
		sched := func(at simtime.Time, key uint64, role int) {
			calls = append(calls, planCall{at, key})
			e.AtKind(at, key, k, &canonEvent{key, role}, nil)
		}
		k = e.RegisterKind(func(a, _ any) {
			ev, now := a.(*canonEvent), e.Now()
			ran = append(ran, planCall{now, ev.key})
			made = append(made, len(calls))
			switch ev.role {
			case 1:
				sched(now, ev.key-1, 2)
				sched(now, ev.key+1, 0)
				sched(now.Add(time.Duration(1+ev.key%3)*tieGrid), ev.key+1, 0)
			case 2:
				sched(now, ev.key-1, 0)
			}
		})
		for _, r := range order {
			sched(ats[r], keys[r], 1)
		}
		e.Run()
		for _, i := range referenceOrder(calls, made) {
			want = append(want, calls[i])
		}
		return ran, want
	}
	first, _ := run(rng.Perm(roots))
	if len(first) != 5*roots {
		t.Fatalf("ran %d events, want %d", len(first), 5*roots)
	}
	for perm := 0; perm < 60; perm++ {
		ran, want := run(rng.Perm(roots))
		if !slices.Equal(ran, want) {
			t.Fatalf("permutation %d: the run left the reference order", perm)
		}
		if !slices.Equal(ran, first) {
			t.Fatalf("permutation %d: the run order depends on the call order", perm)
		}
	}
}
