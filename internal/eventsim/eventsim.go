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
// The queue has two tiers. The near one is a timing wheel (Varghese and
// Lauck, 1987) of wheelSlots slots, each 2^slotShift ns wide, covering the
// instants from the clock's slot up to its horizon, one span later: an event
// before the horizon is filed once, at the back of its slot's list, and an
// occupancy bitmap finds the first non-empty slot from the clock's. When pop
// first takes from a slot, a stable insertion sort puts its list in
// (instant, key) order, so the next event is the list's head; a later event
// appended behind one it is less than marks the list for sorting again.
// Events at or past the horizon go to the overflow tier, a radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, 1990): an event at instant at is filed
// in bucket bits.Len64(at ^ last), where last is the instant the heap last
// released, so bucket 0 holds the events at last and bucket b those whose
// highest bit differing from last is b-1; when bucket 0 is empty, the lowest
// non-empty bucket's least instant becomes last and its events are refiled
// lower. Each time the clock enters a later slot, the horizon moves with it
// and the overflow events now before it migrate into the wheel in instant
// order, into slots the clock has just emptied. So every list holds its
// equal-(instant, key) events in schedule order, and the stable sort keeps
// them so: among equals, the first scheduled runs first. On a packet network
// few events are more than a frame time and a propagation delay ahead, so
// most are filed once and never touch the heap.
//
// The lists are index-linked through one slot pool that reuses freed slots,
// so a steady run allocates nothing. The queue holds every pending event; a
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

// link is a queue slot's key half, kept apart from its payload so that
// scanning and refiling a list walks 16-byte entries only.
type link struct {
	at   simtime.Time
	next uint32 // next slot in the list or free list (0 = none)
}

// The wheel's geometry, chosen from a census of the fat-tree benchmark
// capture: no event there is scheduled more than 65 µs ahead (a 1 518-byte
// frame at 200 Mb/s plus propagation and processing), so a span of 512
// slots, 131 µs, files every one of them once, and a 256 ns slot holds 1.3
// events on average when it releases one.
const (
	slotShift  = 8 // a slot is 2^slotShift ns
	wheelSlots = 512
	wheelMask  = wheelSlots - 1
)

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now simtime.Time

	slots []event // slot pool; slot 0 is the null link
	links []link  // slots' instants and list links, index for index
	free  uint32  // first free slot, linked through next (0 = none)

	// The wheel: slot s lists the events whose instant's slot number
	// (instant >> slotShift) is congruent to s, from cursor, the clock's slot
	// number, up to the horizon, cursor + wheelSlots; in filing order until
	// pop sorts the list.
	cursor     uint64
	head, tail [wheelSlots]uint32
	occ        [wheelSlots / 64]uint64 // bit s set: slot s is non-empty
	sorted     [wheelSlots / 64]uint64 // bit s set: slot s is in (at, key) order
	inWheel    int

	// The overflow tier, a radix heap: bucket b lists, in filing order, the
	// slots whose instant first differs from last in bit b-1 (b = 0: equals
	// it). Every instant in it is at or past the horizon.
	front, back [64]uint32       // each bucket's first and last slot
	lo          [64]simtime.Time // each non-empty bucket's least instant
	full        uint64           // bit b set: bucket b is non-empty
	last        simtime.Time     // instant of the event the heap last released

	queued   int    // events pending, in either tier
	peakHeap int    // largest queued so far
	filed    uint64 // list insertions: pushes, refiles and migrations

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
// once: the run's high-water mark, and the number of slots the queue's pool
// ever held.
func (e *Engine) PeakHeap() int { return e.peakHeap }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Filed returns how many times an event was put on one of the queue's lists
// so far: once when it is scheduled, plus once per refile inside the
// overflow heap and once per migration into the wheel. Filed per Processed
// is how many times the queue handles an event before it releases it.
func (e *Engine) Filed() uint64 { return e.filed }

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

// push files a new event in its wheel slot, or in the overflow heap if it is
// at or past the horizon, in a freed slot if there is one. The slot is
// written field by field: copying in a whole event built by the caller would
// read it back across the caller's just-made stores.
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
	if uint64(t)>>slotShift < e.cursor+wheelSlots {
		e.fileWheel(i)
	} else {
		e.file(i)
	}
	e.queued++
	e.peakHeap = max(e.peakHeap, e.queued)
}

// fileWheel appends slot i to its wheel slot's list. A list in order stays
// so while each event appended is not less than the list's last.
func (e *Engine) fileWheel(i uint32) {
	l := &e.links[i]
	l.next = 0
	s := uint64(l.at) >> slotShift & wheelMask
	if w, bit := s>>6, uint64(1)<<(s&63); e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.head[s] = i
	} else {
		if e.sorted[w]&bit != 0 && e.less(i, e.tail[s]) {
			e.sorted[w] &^= bit
		}
		e.links[e.tail[s]].next = i
	}
	e.tail[s] = i
	e.inWheel++
	e.filed++
}

// file appends slot i to the list of overflow bucket bits.Len64(at ^ last)
// and keeps the bucket's least instant. Instants are never negative, so the
// bucket is below 64.
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
	e.filed++
}

// pop unlinks the queue's least event and returns its slot, already on the
// free list: the caller copies the event out and zeroes the slot, so payload
// pointers do not outlive their event. The first non-empty wheel slot from
// the cursor holds it, at the head of its list once the list is in order;
// if that slot is past the cursor, the cursor moves to it and the overflow
// events the horizon now covers migrate into the wheel. With the wheel
// empty, the cursor jumps to the overflow heap's least instant first.
func (e *Engine) pop() uint32 {
	if e.inWheel == 0 {
		e.cursor = uint64(e.lo[bits.TrailingZeros64(e.full)]) >> slotShift
		e.migrate()
	}
	s := e.firstSlot()
	if c := e.cursor + (s-e.cursor)&wheelMask; c != e.cursor {
		e.cursor = c
		if e.full != 0 { // the heap is nearly always empty: skip the call
			e.migrate()
		}
	}
	w, bit := s>>6, uint64(1)<<(s&63)
	if e.sorted[w]&bit == 0 {
		e.sorted[w] |= bit
		e.head[s], e.tail[s] = e.sortList(e.head[s])
	}
	i := e.head[s]
	if e.head[s] = e.links[i].next; e.head[s] == 0 {
		e.occ[w] &^= bit
	}
	e.inWheel--
	e.links[i].next = e.free
	e.free = i
	e.queued--
	return i
}

// firstSlot returns the first non-empty wheel slot at or after the cursor's,
// wrapping round; the wheel must hold an event.
func (e *Engine) firstSlot() uint64 {
	c := e.cursor & wheelMask
	w := c >> 6
	if m := e.occ[w] >> (c & 63); m != 0 {
		return c + uint64(bits.TrailingZeros64(m))
	}
	for {
		w = (w + 1) % uint64(len(e.occ))
		if m := e.occ[w]; m != 0 {
			return w<<6 + uint64(bits.TrailingZeros64(m))
		}
	}
}

// migrate moves every overflow event before the horizon into the wheel, in
// the heap's release order. The slots they land in lie past every slot the
// wheel still holds events in, so each list stays in schedule order among
// equal instants, and pop's stable sort orders the rest.
func (e *Engine) migrate() {
	for e.full != 0 {
		b := bits.TrailingZeros64(e.full)
		if uint64(e.lo[b])>>slotShift >= e.cursor+wheelSlots {
			return
		}
		e.fileWheel(e.popHeap())
	}
}

// popHeap unlinks the overflow heap's first event, least in instant and
// first in schedule order among equal instants, and returns its slot. When
// bucket 0 is empty, the lowest non-empty bucket's least instant becomes
// last and the bucket is refiled in list order: its events at last land in
// bucket 0, in filing order, the rest in the buckets between. A bucket of
// one event is its own least and is taken as it is. Buckets are refiled
// into empty buckets only, so each lists its events in schedule order.
func (e *Engine) popHeap() uint32 {
	b := bits.TrailingZeros64(e.full)
	if b != 0 {
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
	if e.front[b] = e.links[i].next; e.front[b] == 0 {
		e.full &^= 1 << b
	}
	return i
}

// less orders slots i and j by (at, key).
func (e *Engine) less(i, j uint32) bool {
	a, b := e.links[i].at, e.links[j].at
	return a < b || a == b && e.slots[i].key < e.slots[j].key
}

// sortList puts the list that starts at h in (at, key) order, keeping list
// order among equals, and returns its head and tail. It is an insertion
// sort that appends in O(1) what is not less than the sorted part's tail:
// a slot's list is short, and mostly in order.
func (e *Engine) sortList(h uint32) (head, tail uint32) {
	head, tail = h, h
	for i := e.links[h].next; i != 0; {
		next := e.links[i].next
		switch {
		case !e.less(i, tail):
			e.links[tail].next, tail = i, i
		case e.less(i, head):
			e.links[i].next, head = head, i
		default:
			p := head
			for !e.less(i, e.links[p].next) {
				p = e.links[p].next
			}
			e.links[i].next, e.links[p].next = e.links[p].next, i
		}
		i = next
	}
	e.links[tail].next = 0
	return head, tail
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
