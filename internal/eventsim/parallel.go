// Conservative parallel discrete-event engine: N logical processes (lanes),
// each an ordinary sequential Engine on its own goroutine, synchronized by a
// bounded-window protocol whose lookahead is the minimum cross-lane link
// delay. There is no rollback and no speculation — a lane only executes
// events that can no longer be affected by any other lane — and the result
// is bit-identical to running every event on one sequential Engine.
//
// # Protocol
//
// Execution proceeds in windows. Each window the coordinator computes
// S = min over lanes of the earliest pending event and lets every lane
// execute events with timestamp in [S, S+L), where L is the lookahead. Any
// cross-lane message generated inside the window carries a timestamp at
// least its cause's time plus L, i.e. at or after the window end, so no
// in-window event can be invalidated by a neighbour: the classic
// conservative bound "no lane advances past min(neighbor horizons) +
// lookahead". Cross-lane handoffs are buffered in per-destination outboxes
// (single-producer, single-consumer: the lane appends during the window, the
// coordinator drains at the barrier) and inserted into the destination heap
// before the next window starts.
//
// # Bit-identical tie order
//
// The sequential engine orders same-instant events by (ord, k): the
// execution index of the scheduling cause and the index among that cause's
// schedule calls. A lane cannot know a cause's global execution index while
// the window runs — events executed concurrently in other lanes interleave
// with its own — so in-window causes are stamped with a flagged lane-local
// index instead. At each barrier the coordinator k-way merges the lanes'
// per-window execution records in global (at, ord, k) order, assigning each
// executed event its dense global index, then rewrites the flagged stamps on
// parked events and outbox messages. The merge can always resolve a flagged
// cause on the fly: the cause executed earlier in the same lane's window, so
// its global index was assigned before any of its children reach the merge
// head. Setup-time schedules use ord 0 with one counter shared across lanes,
// which is exactly the sequential setup order. The result is that every
// event carries the same (at, ord, k) key it would have carried on the
// sequential engine, so heap pop order — and therefore every handler
// execution order — is identical.
//
// # Shared state: deferred effects
//
// Simulation state must be partitioned: a node's events run on its lane's
// goroutine with no locks. State that is genuinely global (measurement
// estimator folds, export captures) is instead mutated through the effect
// log: handlers call Emit, the coordinator merges the per-lane logs in
// global execution order at each barrier and applies them single-threaded.
// Because effects are applied in exactly the order the sequential run would
// have produced them, even order-sensitive folds (floating-point Welford
// accumulators) come out bit-identical.
//
// # One lane
//
// A one-lane Parallel is the sequential engine: there is no neighbour to
// wait for and no interleaving to reconstruct, so Run hands the whole
// simulation to the lane's ordinary Engine.Run loop (no goroutines, windows,
// execution records or barrier) and Emit applies each effect inline, which is
// by definition global event order. This is the only place the choice is
// made, and it is made from the lane count alone; callers build every run the
// same way.
package eventsim

import (
	"fmt"
	"sync"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// EffectKind identifies an effect handler registered with RegisterEffect.
type EffectKind uint32

// EffectHandler applies one deferred effect on the coordinator goroutine.
// It receives the instant the effect was emitted at and the two payload
// words passed to Emit.
type EffectHandler func(at simtime.Time, a, b any)

// execRec is the identity of one executed event: the key it was popped with.
type execRec struct {
	at  simtime.Time
	ord uint64
	k   uint32
}

// effectRec is one deferred effect: the flagged local index of the emitting
// event plus the Emit payload. Per-lane logs are in emission order, which
// within one emitting event is the order the effects must apply in.
type effectRec struct {
	ord  uint64
	kind EffectKind
	at   simtime.Time
	a, b any
}

// xmsg is a timestamped cross-lane message: a typed event addressed to
// another lane, carrying its cause's flagged local index until the barrier
// resolves it.
type xmsg struct {
	at   simtime.Time
	ord  uint64
	k    uint32
	kind Kind
	a, b any
}

// Parallel coordinates N lanes. Create with NewParallel, register kinds and
// effects, build the simulation across the lanes, then call Run once.
type Parallel struct {
	lanes     []*Engine
	lookahead time.Duration
	setupK    uint32
	effects   []EffectHandler
	gexec     uint64

	// Per-barrier scratch, reused across windows.
	winGidx [][]uint64 // global index assigned to each record, per lane
	winBase []uint64   // lane's execution count before this window
	pos     []int
}

// NewParallel returns a coordinator with n empty lanes.
func NewParallel(n int) *Parallel {
	if n < 1 {
		panic("eventsim: NewParallel needs at least one lane")
	}
	p := &Parallel{
		lanes:   make([]*Engine, n),
		winGidx: make([][]uint64, n),
		winBase: make([]uint64, n),
		pos:     make([]int, n),
	}
	for i := range p.lanes {
		l := New()
		l.par = p
		l.laneID = i
		l.extK = &p.setupK
		l.outbox = make([][]xmsg, n)
		p.lanes[i] = l
	}
	return p
}

// Lanes returns the number of lanes.
func (p *Parallel) Lanes() int { return len(p.lanes) }

// Lane returns lane i. Schedule a simulation object's events on the lane
// that owns it; during setup all lanes share one schedule-order counter, so
// setup calls across lanes keep their global order.
func (p *Parallel) Lane(i int) *Engine { return p.lanes[i] }

// RegisterKind installs a typed handler on every lane under one Kind.
// Register kinds in a fixed order before building the simulation, exactly as
// with a sequential engine.
func (p *Parallel) RegisterKind(h TypedHandler) Kind {
	k := p.lanes[0].RegisterKind(h)
	for _, l := range p.lanes[1:] {
		if lk := l.RegisterKind(h); lk != k {
			panic("eventsim: lanes have diverging kind tables")
		}
	}
	return k
}

// RegisterEffect installs a handler for one deferred effect kind. Handlers
// run on the coordinator goroutine, between windows, in global event order.
func (p *Parallel) RegisterEffect(h EffectHandler) EffectKind {
	if h == nil {
		panic("eventsim: RegisterEffect with nil handler")
	}
	p.effects = append(p.effects, h)
	return EffectKind(len(p.effects) - 1)
}

// Now returns the latest lane clock — after Run, the instant of the last
// event executed anywhere, matching the sequential engine's final clock.
func (p *Parallel) Now() simtime.Time {
	var t simtime.Time
	for _, l := range p.lanes {
		if l.now > t {
			t = l.now
		}
	}
	return t
}

// Processed returns the total number of events executed across lanes.
func (p *Parallel) Processed() uint64 {
	var n uint64
	for _, l := range p.lanes {
		n += l.processed
	}
	return n
}

// Run executes the simulation to completion with the given lookahead: the
// minimum delay of any cross-lane message, which every SendKind call must
// respect. It returns the number of events executed.
//
// Run may be called once; the engine does not support Stop or incremental
// deadlines in parallel mode.
func (p *Parallel) Run(lookahead time.Duration) uint64 {
	if lookahead <= 0 {
		panic("eventsim: parallel run needs positive lookahead")
	}
	p.lookahead = lookahead
	for _, l := range p.lanes {
		l.extK = nil // setup is over; lanes stamp their own schedule indices
	}
	if len(p.lanes) == 1 {
		return p.lanes[0].Run()
	}

	work := make([]chan simtime.Time, len(p.lanes))
	done := make(chan struct{}, len(p.lanes))
	var wg sync.WaitGroup
	for i, l := range p.lanes {
		work[i] = make(chan simtime.Time)
		wg.Add(1)
		go func(l *Engine, ch chan simtime.Time) {
			defer wg.Done()
			for end := range ch {
				l.runWindow(end)
				done <- struct{}{}
			}
		}(l, work[i])
	}

	for {
		start := simtime.Never
		for _, l := range p.lanes {
			if ev := l.peek(); ev != nil && ev.at < start {
				start = ev.at
			}
		}
		if start == simtime.Never {
			break
		}
		end := start.Add(lookahead)
		for _, ch := range work {
			ch <- end
		}
		for range p.lanes {
			<-done
		}
		p.barrier()
	}
	for _, ch := range work {
		close(ch)
	}
	wg.Wait()
	return p.Processed()
}

// runWindow executes every pending event strictly before end, recording
// execution order for the barrier merge. It runs on the lane's goroutine.
func (e *Engine) runWindow(end simtime.Time) {
	e.deferPast = end
	for e.exec(end - 1) {
	}
	e.deferPast = 0
}

// SendKind schedules a typed event on another lane, d after the current
// instant. It is the cross-lane analogue of AfterKind and shares the per-
// cause schedule-call counter with it, so a handler mixing local schedules
// and cross-lane sends keeps its sequential call order. d must be at least
// the run's lookahead.
func (e *Engine) SendKind(dst *Engine, d time.Duration, kind Kind, a, b any) {
	if dst == e {
		e.AfterKind(d, kind, a, b)
		return
	}
	if e.par == nil || dst.par != e.par {
		panic("eventsim: SendKind between unrelated engines")
	}
	if d < e.par.lookahead {
		panic(fmt.Sprintf("eventsim: cross-lane send delay %v below lookahead %v", d, e.par.lookahead))
	}
	k := e.k
	e.k++
	e.outbox[dst.laneID] = append(e.outbox[dst.laneID],
		xmsg{at: e.now.Add(d), ord: e.ord, k: k, kind: kind, a: a, b: b})
}

// Emit hands one effect to the coordinator: h(at, a, b) runs after every
// effect of globally-earlier events and before every effect of
// globally-later ones — the exact order a sequential run would have
// produced. With several lanes that is the next barrier; a lone lane's own
// order is the global order, so the effect applies at once. Only call from
// inside an executing event of a Parallel's lane.
func (e *Engine) Emit(kind EffectKind, at simtime.Time, a, b any) {
	if len(e.par.lanes) == 1 {
		e.par.effects[kind](at, a, b)
		return
	}
	e.effs = append(e.effs, effectRec{ord: e.ord, kind: kind, at: at, a: a, b: b})
}

// resolve maps an ord stamp to the cause's global execution index, using the
// current window's assignments for flagged lane-local stamps.
func (p *Parallel) resolve(lane int, ord uint64) uint64 {
	if ord&flagLocal == 0 {
		return ord
	}
	return p.winGidx[lane][(ord&^flagLocal)-p.winBase[lane]-1]
}

// barrier runs between windows on the coordinator goroutine: it assigns
// global execution indices to the window's events, rewrites parked events
// and cross-lane messages with them, inserts both into the heaps, and
// applies the deferred effects in global order.
func (p *Parallel) barrier() {
	// Assign global indices by k-way merge of the per-lane execution records
	// in (at, ord, k) order. A record's flagged ord always refers to an
	// earlier record of the same lane, so it resolves to an already-assigned
	// index by the time the record can be at the merge head.
	for i, l := range p.lanes {
		p.winBase[i] = l.processed - uint64(len(l.recs))
		if cap(p.winGidx[i]) < len(l.recs) {
			p.winGidx[i] = make([]uint64, len(l.recs))
		}
		p.winGidx[i] = p.winGidx[i][:len(l.recs)]
		p.pos[i] = 0
	}
	for {
		best := -1
		var bat simtime.Time
		var bord uint64
		var bk uint32
		for i, l := range p.lanes {
			if p.pos[i] >= len(l.recs) {
				continue
			}
			r := l.recs[p.pos[i]]
			ro := p.resolve(i, r.ord)
			if best < 0 || r.at < bat ||
				(r.at == bat && (ro < bord || (ro == bord && r.k < bk))) {
				best, bat, bord, bk = i, r.at, ro, r.k
			}
		}
		if best < 0 {
			break
		}
		p.gexec++
		p.winGidx[best][p.pos[best]] = p.gexec
		p.pos[best]++
	}

	// Parked events and outbox messages were caused by this window's events;
	// rewrite their stamps to global indices and insert them.
	for i, l := range p.lanes {
		for _, ev := range l.side {
			ev.ord = p.resolve(i, ev.ord)
			l.push(ev)
		}
		l.side = l.side[:0]
	}
	for i, l := range p.lanes {
		for di := range l.outbox {
			for _, m := range l.outbox[di] {
				p.lanes[di].push(event{at: m.at, ord: p.resolve(i, m.ord), kind: m.kind, k: m.k, a: m.a, b: m.b})
			}
			l.outbox[di] = l.outbox[di][:0]
		}
	}

	// Apply deferred effects in global execution order. Each lane's log is
	// already ordered (emission order, and lane-local execution order is
	// preserved by the global one), so a stable k-way merge on the resolved
	// emitter index suffices; effects of one event stay in emission order.
	for i := range p.lanes {
		p.pos[i] = 0
	}
	for {
		best := -1
		var bord uint64
		for i, l := range p.lanes {
			if p.pos[i] >= len(l.effs) {
				continue
			}
			if ro := p.resolve(i, l.effs[p.pos[i]].ord); best < 0 || ro < bord {
				best, bord = i, ro
			}
		}
		if best < 0 {
			break
		}
		r := &p.lanes[best].effs[p.pos[best]]
		p.effects[r.kind](r.at, r.a, r.b)
		r.a, r.b = nil, nil
		p.pos[best]++
	}
	for _, l := range p.lanes {
		l.recs = l.recs[:0]
		l.effs = l.effs[:0]
	}
}
