// Package eventsim implements a deterministic discrete-event simulation
// engine.
//
// Events are scheduled at nanosecond-resolution virtual instants
// (simtime.Time). The engine pops events in (time, scheduling order): two
// events scheduled for the same instant run in the order they were scheduled,
// which makes simulations bit-for-bit reproducible across runs with the same
// seed.
//
// Scheduling order is not stored as one global sequence number but as the
// pair (ord, k): ord is the execution index of the event that did the
// scheduling (0 for events scheduled during setup, before the run), and k
// counts that cause's schedule calls. For events at the same instant the
// lexicographic (ord, k) order equals call order — a cause that executed
// earlier made all its schedule calls earlier — so the total order is
// unchanged. The pair is what the queue's two-tier rule below is written
// on: "scheduled by setup" is ord == 0, read off the event itself.
//
// The engine offers two scheduling APIs:
//
//   - At/After take a closure. This is the convenient path for cold callers
//     (experiment setup, tickers); each call captures its state in a heap
//     allocation.
//   - AtKind/AfterKind take a Kind registered via RegisterKind plus two
//     payload words. Handlers are installed once per kind; the payload is
//     carried by value inside the event heap slot, so scheduling allocates
//     nothing as long as the payload words are pointer-shaped (pointers,
//     funcs, channels, maps). This is the path the packet simulator's
//     per-packet events use.
//
// Internally the queue has two tiers holding one total order. Events that
// events schedule go to a monomorphic 4-ary min-heap over a flat []event
// slice: no container/heap indirection, no interface boxing per element, and
// a branching factor that keeps parent/child slots on the same cache lines.
// Events that setup schedules — ord 0: nothing has executed yet — go to the
// backlog instead, a plain slice that is sorted once by the same (at, ord, k)
// key (not at all when setup scheduled in time order, as a trace replay does)
// and then consumed front to back. The next event is the smaller of the
// backlog's head and the heap's root; keys are unique, so that is exactly the
// order one heap holding everything would pop. What it buys is a heap whose
// size is the number of events in flight, not the length of the workload: a
// run that injects its whole trace up front no longer sifts every push and
// pop through tens of thousands of events that are not due yet.
//
// The rule is the cause word and nothing else. Once any event has executed,
// ord is non-zero for good, so schedule calls made between two RunUntil
// calls (or after a Step) go to the heap like any event-scheduled event;
// there is no size threshold and no second queue kind to choose.
//
// An Engine is single-goroutine: network simulation at packet granularity is
// dominated by the event heap and cache behaviour, and a single timeline
// avoids cross-goroutine nondeterminism. Multi-core scale-out is across
// independent runs (internal/runner); DESIGN.md "One event engine" records
// why there is no multi-lane engine.
package eventsim

import (
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// Handler is a scheduled action. It runs with the engine clock set to the
// instant it was scheduled for.
type Handler func()

// Kind identifies a typed-event handler registered with RegisterKind.
type Kind uint32

// TypedHandler executes one typed event. It receives the two payload words
// the event was scheduled with. Payloads are conventionally pointers (a
// node or port, and a packet); storing pointer-shaped values in the payload
// words performs no allocation.
type TypedHandler func(a, b any)

// kindFunc is the built-in kind backing the At/After closure API: payload
// word a holds the Handler.
const kindFunc Kind = 0

// event is one heap slot. The payload words a and b are carried by value:
// popping an event never allocates, and dispatch goes through the engine's
// kind table rather than a captured closure.
type event struct {
	at   simtime.Time
	ord  uint64 // execution index of the scheduling cause (0 = setup)
	kind Kind
	k    uint32 // index among the cause's schedule calls
	a, b any
}

// before reports whether x orders strictly ahead of y in (at, ord, k) order.
func (x *event) before(y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.ord != y.ord {
		return x.ord < y.ord
	}
	return x.k < y.k
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now       simtime.Time
	ord       uint64  // cause word stamped on schedule calls (execution index of the running event)
	k         uint32  // next schedule-call index of the running event
	events    []event // 4-ary min-heap ordered by (at, ord, k): events scheduled by events
	backlog   []event // events scheduled by setup (ord 0); sorted by (at, ord, k) before first use
	head      int     // next unconsumed backlog slot
	unsorted  bool    // a setup schedule call broke the backlog's append order
	peakHeap  int     // largest len(events) so far
	setup     int     // events the backlog was handed in total
	kinds     []TypedHandler
	processed uint64
	stopped   bool
}

// New returns an engine with its clock at the simulation epoch.
func New() *Engine {
	e := &Engine{}
	e.events = make([]event, 0, 1024)
	e.kinds = []TypedHandler{func(a, _ any) { a.(Handler)() }}
	return e
}

// RegisterKind installs a typed-event handler and returns its Kind. Kinds
// are engine-scoped; register them once at setup (registration order is part
// of the deterministic state, so register in a fixed order).
func (e *Engine) RegisterKind(h TypedHandler) Kind {
	if h == nil {
		panic("eventsim: RegisterKind with nil handler")
	}
	e.kinds = append(e.kinds, h)
	return Kind(len(e.kinds) - 1)
}

// Now returns the current virtual time.
func (e *Engine) Now() simtime.Time { return e.now }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.backlog) - e.head + len(e.events) }

// PeakHeap returns the largest number of event-scheduled events that were
// ever queued at once: the run's in-flight high-water mark, and the size the
// heap's sifts actually worked on.
func (e *Engine) PeakHeap() int { return e.peakHeap }

// Backlog returns the number of events setup scheduled before the run — the
// workload the heap never had to hold.
func (e *Engine) Backlog() int { return e.setup }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at instant t. Scheduling in the past (t earlier than
// Now) panics: it would silently corrupt causality in a network simulation.
func (e *Engine) At(t simtime.Time, fn Handler) {
	e.schedule(t, kindFunc, fn, nil)
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d time.Duration, fn Handler) {
	e.schedule(e.now.Add(d), kindFunc, fn, nil)
}

// AtKind schedules a typed event at instant t. Scheduling in the past
// panics. The payload words a and b are handed to the kind's handler when
// the event fires.
func (e *Engine) AtKind(t simtime.Time, k Kind, a, b any) {
	if uint32(k) >= uint32(len(e.kinds)) {
		panic("eventsim: AtKind with unregistered kind")
	}
	e.schedule(t, k, a, b)
}

// AfterKind schedules a typed event d after the current instant.
func (e *Engine) AfterKind(d time.Duration, k Kind, a, b any) {
	e.AtKind(e.now.Add(d), k, a, b)
}

func (e *Engine) schedule(t simtime.Time, kind Kind, a, b any) {
	if t < e.now {
		panic("eventsim: scheduling event in the past (" + t.String() + " < " + e.now.String() + ")")
	}
	ev := event{at: t, ord: e.ord, kind: kind, k: e.k, a: a, b: b}
	e.k++
	if e.ord == 0 {
		// Setup: nothing has executed, so nothing has been consumed either.
		// Every backlog event has ord 0 and a smaller k than this one, so
		// only an earlier instant puts it out of order.
		if n := len(e.backlog); n > 0 && t < e.backlog[n-1].at {
			e.unsorted = true
		}
		e.backlog = append(e.backlog, ev)
		e.setup++
		return
	}
	e.push(ev)
}

// push sifts a new event up the 4-ary heap.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
	if len(h) > e.peakHeap {
		e.peakHeap = len(h)
	}
}

// pop removes the minimum event, sifting the displaced tail element down.
// The vacated tail slot is zeroed so payload pointers do not outlive their
// event.
func (e *Engine) pop() {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.events = h
}

// peek returns the next event in (at, ord, k) order without removing it —
// the smaller of the backlog's head and the heap's root — or nil when none
// is pending. It sorts the backlog on first use if setup appended out of
// order. The pointer is valid until the next schedule call or exec.
func (e *Engine) peek() *event {
	if e.head == len(e.backlog) {
		if len(e.events) == 0 {
			return nil
		}
		return &e.events[0]
	}
	if e.unsorted {
		slices.SortFunc(e.backlog, func(x, y event) int {
			if x.before(&y) {
				return -1
			}
			return 1
		})
		e.unsorted = false
	}
	if b := &e.backlog[e.head]; len(e.events) == 0 || b.before(&e.events[0]) {
		return b
	}
	return &e.events[0]
}

// exec runs the next event if there is one and it is due at or before limit,
// and reports whether it did. It is the one place an event leaves the queue:
// Run, RunUntil and Step all loop over it. The event is copied out of its
// slot before the slot goes — the heap's root by pop, a backlog slot by
// zeroing it, like pop zeroes the tail, so payload pointers do not outlive
// their event; the drained backlog is released whole.
func (e *Engine) exec(limit simtime.Time) bool {
	p := e.peek()
	if p == nil || p.at > limit {
		return false
	}
	ev := *p
	if len(e.events) > 0 && p == &e.events[0] {
		e.pop()
	} else {
		*p = event{}
		e.head++
		if e.head == len(e.backlog) {
			e.backlog, e.head = nil, 0
		}
	}
	e.now = ev.at
	e.processed++
	e.ord = e.processed
	e.k = 0
	e.kinds[ev.kind](ev.a, ev.b)
	return true
}

// Stop makes the currently executing Run or RunUntil call return after the
// current event finishes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the number of events executed by this call.
func (e *Engine) Run() uint64 {
	return e.RunUntil(simtime.Never)
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// as it goes. When it returns, the clock rests at the later of its previous
// value and the deadline (or at the last executed event when the deadline is
// simtime.Never). It returns the number of events executed by this call.
func (e *Engine) RunUntil(deadline simtime.Time) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped && e.exec(deadline) {
		n++
	}
	if deadline != simtime.Never && deadline > e.now && !e.stopped {
		e.now = deadline
	}
	return n
}

// Step executes exactly one event if any is pending and reports whether it
// did so.
func (e *Engine) Step() bool { return e.exec(simtime.Never) }

// Ticker invokes fn every period, starting at start, until fn returns false.
// It is a convenience for periodic processes such as utilization sampling and
// clock resynchronization.
func (e *Engine) Ticker(start simtime.Time, period time.Duration, fn func(now simtime.Time) bool) {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	var tick Handler
	tick = func() {
		if !fn(e.now) {
			return
		}
		e.After(period, tick)
	}
	e.At(start, tick)
}
