// Package eventsim implements a deterministic discrete-event simulation
// engine.
//
// Events are scheduled at nanosecond-resolution virtual instants
// (simtime.Time), each with a 64-bit tie key, and the engine runs the least
// (instant, key) pending; only equal keys run in schedule order. Callers
// derive keys from their model (internal/netsim: an event class and a packet
// or port id), so same-instant order is a function of what is simulated,
// not of when the engine was asked. A handler may schedule at the current
// instant with any key, below its own or above.
//
// Every event is typed: AtKind/AfterKind take a Kind registered via
// RegisterKind plus two payload words. Handlers are installed once per kind;
// the payload is carried by value inside the queue slot, so scheduling
// allocates nothing as long as the payload words are pointer-shaped
// (pointers, funcs, channels, maps). There is one run mode: setup schedules,
// Run drains the queue.
//
// The queue is one radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990): an
// event at instant at is filed in bucket bits.Len64(at ^ last), where last is
// the instant the heap last released. Schedule calls never go back in time,
// so bucket 0 holds the events at last and bucket b those whose highest bit
// differing from last is b-1. A push appends to its bucket, and each bucket
// keeps its least instant. When bucket 0 is empty, the lowest non-empty
// bucket's least instant becomes last and its events are refiled lower (a
// bucket of one is popped as it is). Buckets are FIFO lists, refiled in order
// into empty buckets only, so each stays in schedule order, and bucket 0
// releases its least key by a linear scan (same-instant piles are small).
// The lists are index-linked through one slot pool that reuses freed slots,
// so a steady run allocates nothing. The heap holds every pending event; a
// workload that schedules each packet when the one before it runs
// (netsim.Source) keeps it at what is in flight.
//
// An Engine is single-goroutine: network simulation at packet granularity is
// dominated by the event queue and cache behaviour, and a single timeline
// avoids cross-goroutine nondeterminism. Multi-core scale-out is across
// independent runs (internal/runner); DESIGN.md "One event engine" records
// why there is no multi-lane engine.
package eventsim

import (
	"math/bits"
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
	key  uint64 // tie key: the order among equal instants
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
	now simtime.Time

	// The radix heap: bucket b lists, in schedule order, the slots whose
	// instant first differs from last in bit b-1 (b = 0: equals it).
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
	return &Engine{slots: make([]event, 1, 1024), links: make([]link, 1, 1024)}
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
func (e *Engine) Pending() int { return e.queued }

// PeakHeap returns the largest number of events that were ever pending at
// once: the run's high-water mark, and the number of slots the heap's pool
// ever held.
func (e *Engine) PeakHeap() int { return e.peakHeap }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// AtKind schedules a typed event at instant t with tie key key. Scheduling
// in the past (t earlier than Now) panics: it would silently corrupt
// causality in a network simulation. The payload words a and b are handed to
// the kind's handler when the event fires.
func (e *Engine) AtKind(t simtime.Time, key uint64, k Kind, a, b any) {
	if uint32(k) >= uint32(len(e.kinds)) {
		panic("eventsim: AtKind with unregistered kind")
	}
	if t < e.now {
		panic("eventsim: scheduling event in the past (" + t.String() + " < " + e.now.String() + ")")
	}
	e.push(t, key, k, a, b)
}

// AfterKind schedules a typed event d after the current instant, with tie
// key 0. Negative d panics.
func (e *Engine) AfterKind(d time.Duration, k Kind, a, b any) {
	e.AtKind(e.now.Add(d), 0, k, a, b)
}

// push files a new event at the back of its bucket, in a freed slot if there
// is one. The slot is written field by field: copying in a whole event built
// by the caller would read it back across the caller's just-made stores.
func (e *Engine) push(t simtime.Time, key uint64, kind Kind, a, b any) {
	i := e.free
	if i != 0 {
		e.free = e.links[i].next
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, event{})
		e.links = append(e.links, link{})
	}
	s := &e.slots[i]
	s.at, s.key, s.kind, s.a, s.b = t, key, kind, a, b
	e.links[i].at = t
	e.file(i)
	e.queued++
	e.peakHeap = max(e.peakHeap, e.queued)
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

// pop unlinks the heap's least event and returns its slot, already on the
// free list: the caller copies the event out and zeroes the slot, so payload
// pointers do not outlive their event. When bucket 0 is empty, the lowest
// non-empty bucket's least instant becomes last and the bucket is refiled in
// list order: its events at last land in bucket 0, in schedule order, the
// rest in the buckets between. A bucket of one event is its own least and is
// taken as it is. Bucket 0 holds every event at last; a scan releases its
// least key, the first in schedule order among equal keys.
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
	i, prev := e.front[b], uint32(0)
	if i != e.back[b] {
		least := e.slots[i].key
		for p, j := i, e.links[i].next; j != 0; p, j = j, e.links[j].next {
			if k := e.slots[j].key; k < least {
				i, prev, least = j, p, k
			}
		}
	}
	next := e.links[i].next
	if prev == 0 {
		e.front[b] = next
	} else {
		e.links[prev].next = next
	}
	if next == 0 {
		e.back[b] = prev
		if prev == 0 {
			e.full &^= 1 << b
		}
	}
	e.links[i].next = e.free
	e.free = i
	e.queued--
	return i
}

// Run executes events in (at, key) order until the queue is empty and
// returns the number it executed.
func (e *Engine) Run() uint64 {
	start := e.processed
	for e.queued > 0 {
		i := e.pop()
		ev := e.slots[i]
		e.slots[i] = event{}
		e.now = ev.at
		e.processed++
		e.kinds[ev.kind](ev.a, ev.b)
	}
	return e.processed - start
}
