// Package eventsim implements a deterministic discrete-event simulation
// engine.
//
// Events are scheduled at nanosecond-resolution virtual instants
// (simtime.Time). The engine pops events in (at, seq) order: seq numbers the
// engine's schedule calls, so two events scheduled for the same instant run in
// the order they were scheduled, which makes simulations bit-for-bit
// reproducible across runs with the same seed.
//
// Every event is typed: AtKind/AfterKind take a Kind registered via
// RegisterKind plus two payload words. Handlers are installed once per kind;
// the payload is carried by value inside the queue slot, so scheduling
// allocates nothing as long as the payload words are pointer-shaped
// (pointers, funcs, channels, maps). There is one run mode: setup schedules,
// Run drains the queue.
//
// Internally the queue has two tiers holding one total order. Events that
// setup schedules — nothing has executed yet — go to the backlog, a plain
// slice that is sorted once by (at, seq) (not at all when setup scheduled in
// time order, as a trace replay does) and then consumed front to back. Every
// other event goes to a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990):
// an event at instant at is filed in bucket bits.Len64(at ^ last), where last
// is the instant of the event the heap last released. Schedule calls never go
// back in time, so every queued instant is at least last: bucket 0 holds the
// events at last itself, and bucket b the ones whose highest bit differing
// from last is b-1. A push is an append to its bucket, with no sift; each
// bucket keeps its least instant as events are filed. A pop takes the front
// of bucket 0; when that is empty, the lowest non-empty bucket's least instant
// becomes last and the bucket's events are refiled, each into a strictly lower
// bucket (a bucket of one event is popped as it is). Buckets are FIFO lists,
// refiling walks them in order and only ever fills empty buckets, so every
// bucket stays in schedule-call order and bucket 0 releases same-instant
// events by seq. The lists are index-linked through one slot pool whose freed
// slots are reused, so a run in steady state allocates nothing, however its
// instants move.
//
// The next event is the smaller of the backlog's head and the heap's least
// event; setup calls precede every event-scheduled call, so the backlog wins
// ties. The heap's least instant is looked up without refiling: last advances
// only when the heap releases an event, because a backlog event before it
// sets a clock that later schedule calls may fill in behind. What the two
// tiers buy is a heap whose size is the number of events in flight, not the
// length of the workload. The rule is "has anything executed" and nothing
// else: schedule calls made after a Run that executed anything go to the
// heap like any event-scheduled event.
//
// An Engine is single-goroutine: network simulation at packet granularity is
// dominated by the event queue and cache behaviour, and a single timeline
// avoids cross-goroutine nondeterminism. Multi-core scale-out is across
// independent runs (internal/runner); DESIGN.md "One event engine" records
// why there is no multi-lane engine.
package eventsim

import (
	"math/bits"
	"slices"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// Kind identifies a typed-event handler registered with RegisterKind.
type Kind uint32

// TypedHandler executes one typed event. It receives the two payload words
// the event was scheduled with. Payloads are conventionally pointers (a
// node or port, and a packet); storing pointer-shaped values in the payload
// words performs no allocation.
type TypedHandler func(a, b any)

// event is one queue slot. The payload words a and b are carried by value:
// popping an event never allocates, and dispatch goes through the engine's
// kind table rather than a captured closure.
type event struct {
	at   simtime.Time
	seq  uint64 // schedule-call index: the tie order among equal instants
	kind Kind
	a, b any
}

// link is a heap slot's key half, kept apart from its payload so that
// finding and refiling a bucket walks 16-byte entries only.
type link struct {
	at   simtime.Time
	next uint32 // next slot in the bucket or free list (0 = none)
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now      simtime.Time
	seq      uint64  // schedule calls made so far
	backlog  []event // events scheduled before any executed; sorted by (at, seq) before first use
	head     int     // next unconsumed backlog slot
	unsorted bool    // a setup schedule call broke the backlog's append order
	setup    int     // events the backlog was handed in total

	// The radix heap of every other event: bucket b lists, in seq order, the
	// slots whose instant first differs from last in bit b-1 (b = 0: equals it).
	slots       []event          // slot pool; slot 0 is the null link
	links       []link           // slots' instants and list links, index for index
	free        uint32           // first free slot, linked through next (0 = none)
	front, back [64]uint32       // each bucket's first and last slot
	lo          [64]simtime.Time // each non-empty bucket's least instant
	full        uint64           // bit b set: bucket b is non-empty
	last        simtime.Time     // instant of the event the heap last released
	queued      int              // events in the heap
	peakHeap    int              // largest queued so far

	kinds     []TypedHandler
	processed uint64
}

// New returns an engine with its clock at the simulation epoch.
func New() *Engine {
	e := &Engine{}
	e.slots = make([]event, 1, 1024)
	e.links = make([]link, 1, 1024)
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
func (e *Engine) Pending() int { return len(e.backlog) - e.head + e.queued }

// PeakHeap returns the largest number of event-scheduled events that were
// ever queued at once: the run's in-flight high-water mark, and the number of
// slots the heap's pool ever held.
func (e *Engine) PeakHeap() int { return e.peakHeap }

// Backlog returns the number of events setup scheduled before the run — the
// workload the heap never had to hold.
func (e *Engine) Backlog() int { return e.setup }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// AtKind schedules a typed event at instant t. Scheduling in the past (t
// earlier than Now) panics: it would silently corrupt causality in a network
// simulation. The payload words a and b are handed to the kind's handler
// when the event fires.
func (e *Engine) AtKind(t simtime.Time, k Kind, a, b any) {
	if uint32(k) >= uint32(len(e.kinds)) {
		panic("eventsim: AtKind with unregistered kind")
	}
	e.schedule(t, k, a, b)
}

// AfterKind schedules a typed event d after the current instant. Negative d
// panics.
func (e *Engine) AfterKind(d time.Duration, k Kind, a, b any) {
	e.AtKind(e.now.Add(d), k, a, b)
}

func (e *Engine) schedule(t simtime.Time, kind Kind, a, b any) {
	if t < e.now {
		panic("eventsim: scheduling event in the past (" + t.String() + " < " + e.now.String() + ")")
	}
	seq := e.seq
	e.seq++
	if e.processed == 0 {
		// Setup: nothing has executed, so nothing has been consumed either.
		// Every backlog event has a smaller seq than this one, so only an
		// earlier instant puts it out of order.
		if n := len(e.backlog); n > 0 && t < e.backlog[n-1].at {
			e.unsorted = true
		}
		e.backlog = append(e.backlog, event{at: t, seq: seq, kind: kind, a: a, b: b})
		e.setup++
		return
	}
	e.push(t, seq, kind, a, b)
}

// push files a new event at the back of its bucket, in a freed slot if there
// is one. The slot is written field by field: copying in a whole event built
// by the caller would read it back across the caller's just-made stores.
func (e *Engine) push(t simtime.Time, seq uint64, kind Kind, a, b any) {
	i := e.free
	if i != 0 {
		e.free = e.links[i].next
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, event{})
		e.links = append(e.links, link{})
	}
	s := &e.slots[i]
	s.at, s.seq, s.kind, s.a, s.b = t, seq, kind, a, b
	e.links[i].at = t
	e.file(i)
	e.queued++
	if e.queued > e.peakHeap {
		e.peakHeap = e.queued
	}
}

// file appends slot i to the list of bucket bits.Len64(at ^ last) and keeps
// the bucket's least instant. Instants are never negative, so the bucket is
// below 64.
func (e *Engine) file(i uint32) {
	l := &e.links[i]
	l.next = 0
	b := bits.Len64(uint64(l.at ^ e.last))
	if e.full&(1<<b) == 0 {
		e.full |= 1 << b
		e.front[b] = i
		e.lo[b] = l.at
	} else {
		e.links[e.back[b]].next = i
		e.lo[b] = min(e.lo[b], l.at)
	}
	e.back[b] = i
}

// leastAt returns the least instant of the heap, which must hold events,
// without moving last: the least instant of its lowest non-empty bucket.
func (e *Engine) leastAt() simtime.Time {
	return e.lo[bits.TrailingZeros64(e.full)]
}

// pop unlinks the heap's least event and returns its slot, already on the
// free list: the caller copies the event out and zeroes the slot, so payload
// pointers do not outlive their event. When bucket 0 is empty, the lowest
// non-empty bucket's least instant becomes last and the bucket is refiled in
// list order: its events at last land in bucket 0, in seq order, the rest in
// the buckets between. A bucket of one event is its own least and is taken
// as it is.
func (e *Engine) pop() uint32 {
	b := 0
	if e.full&1 == 0 {
		b = bits.TrailingZeros64(e.full)
		e.last = e.lo[b]
		if e.front[b] != e.back[b] {
			e.full &^= 1 << b
			for i := e.front[b]; i != 0; {
				next := e.links[i].next
				e.file(i)
				i = next
			}
			b = 0
		}
	}
	i := e.front[b]
	next := e.links[i].next
	e.front[b] = next
	if next == 0 {
		e.full &^= 1 << b
	}
	e.links[i].next = e.free
	e.free = i
	e.queued--
	return i
}

// Run executes events in (at, seq) order until the queue is empty and
// returns the number it executed. Only setup — schedule calls made before
// any event has run — fills the backlog, so it is sorted here, before the
// first event runs.
func (e *Engine) Run() uint64 {
	if e.unsorted {
		// seq is unique, so no two slots compare equal.
		slices.SortFunc(e.backlog, func(x, y event) int {
			if x.at < y.at || x.at == y.at && x.seq < y.seq {
				return -1
			}
			return 1
		})
		e.unsorted = false
	}
	start := e.processed
	for e.exec() {
	}
	return e.processed - start
}

// exec runs the next event in (at, seq) order if there is one and reports
// whether it did. It is the one place an event leaves the queue. The next
// event is the smaller of the backlog's head and the heap's least; a consumed
// backlog slot is zeroed, like a freed heap slot, and the drained backlog is
// released whole.
func (e *Engine) exec() bool {
	var ev event
	if e.head < len(e.backlog) && (e.queued == 0 || e.backlog[e.head].at <= e.leastAt()) {
		// Setup calls precede every event-scheduled call: the backlog wins ties.
		p := &e.backlog[e.head]
		ev = *p
		*p = event{}
		e.head++
		if e.head == len(e.backlog) {
			e.backlog, e.head = nil, 0
		}
	} else if e.queued > 0 {
		i := e.pop()
		ev = e.slots[i]
		e.slots[i] = event{}
	} else {
		return false
	}
	e.now = ev.at
	e.processed++
	e.kinds[ev.kind](ev.a, ev.b)
	return true
}
