package eventsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// The parallel engine's one non-negotiable property: every run executes
// events in exactly the sequential engine's global order, including ties at
// equal timestamps. The tests drive both engines with the same adversarial
// schedule — times quantized to a coarse grid so that same-instant events
// pile up within and across lanes — and compare the full execution logs.

const (
	tieLanes     = 4                      // virtual lanes in the plan
	tieLookahead = 1000 * time.Nanosecond // min cross-lane delay
	tieDepth     = 7
)

// tieNode is one planned event: a unique label, its remaining depth, and
// the virtual lane it runs on (set by whoever scheduled it).
type tieNode struct {
	label uint64
	depth int
	home  int
}

// tieEntry is one executed event as observed by the log.
type tieEntry struct {
	label uint64
	at    simtime.Time
}

// tieMix is SplitMix64; the plan derives everything from hashed labels so
// sequential and parallel runs compute identical schedules.
func tieMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tieActions derives the schedule calls an event makes: for each child a
// target virtual lane and a delay. Same-lane delays may be zero (same
// instant); cross-lane delays are at least the lookahead. Delays land on a
// quarter-lookahead grid to force equal-timestamp collisions.
func tieActions(seed uint64, nd *tieNode, visit func(child *tieNode, lane int, d time.Duration)) {
	if nd.depth <= 0 {
		return
	}
	h := tieMix(seed ^ nd.label)
	n := int(h % 4)
	for c := 0; c < n; c++ {
		hc := tieMix(h + uint64(c))
		lane := int(hc % tieLanes)
		q := tieLookahead / 4
		var d time.Duration
		if lane == nd.home {
			d = time.Duration(hc>>8%9) * q // 0 .. 2*lookahead
		} else {
			d = tieLookahead + time.Duration(hc>>8%5)*q // lookahead .. 2.25*lookahead
		}
		visit(&tieNode{label: tieMix(nd.label + uint64(c) + 1), depth: nd.depth - 1, home: lane}, lane, d)
	}
}

// tieRoots plans the setup-time injections: root events on a coarse grid
// across all virtual lanes.
func tieRoots(seed uint64, visit func(nd *tieNode, lane int, at simtime.Time)) {
	for i := 0; i < 24; i++ {
		h := tieMix(seed + 0xABCD + uint64(i))
		lane := int(h % tieLanes)
		at := simtime.Time(int64(h>>8%6) * int64(tieLookahead/2))
		visit(&tieNode{label: tieMix(seed ^ uint64(i)), depth: tieDepth, home: lane}, lane, at)
	}
}

// runTieSequential executes the plan on one sequential engine.
func runTieSequential(seed uint64) []tieEntry {
	var log []tieEntry
	eng := New()
	var kind Kind
	kind = eng.RegisterKind(func(a, _ any) {
		nd := a.(*tieNode)
		log = append(log, tieEntry{nd.label, eng.Now()})
		tieActions(seed, nd, func(child *tieNode, lane int, d time.Duration) {
			_ = lane // one timeline: lane only affects delays, already derived
			eng.AfterKind(d, kind, child, nil)
		})
	})
	tieRoots(seed, func(nd *tieNode, lane int, at simtime.Time) {
		_ = lane
		eng.AtKind(at, kind, nd, nil)
	})
	eng.Run()
	return log
}

// runTieParallel executes the plan on a Parallel with the given partition
// count, mapping virtual lanes onto real ones. The log is assembled from
// deferred effects, i.e. it is the coordinator's global order.
func runTieParallel(seed uint64, partitions int) []tieEntry {
	var log []tieEntry
	pe := NewParallel(partitions)
	logK := pe.RegisterEffect(func(at simtime.Time, a, _ any) {
		log = append(log, tieEntry{a.(*tieNode).label, at})
	})
	var kind Kind
	kind = pe.RegisterKind(func(a, b any) {
		nd := a.(*tieNode)
		lane := b.(*Engine)
		lane.Emit(logK, lane.Now(), nd, nil)
		tieActions(seed, nd, func(child *tieNode, vlane int, d time.Duration) {
			dst := pe.Lane(vlane % partitions)
			lane.SendKind(dst, d, kind, child, dst)
		})
	})
	tieRoots(seed, func(nd *tieNode, vlane int, at simtime.Time) {
		l := pe.Lane(vlane % partitions)
		l.AtKind(at, kind, nd, l)
	})
	pe.Run(tieLookahead)
	return log
}

// TestParallelTieOrder is the satellite property test: equal-timestamp
// events across partitions dequeue in the same global order as the
// sequential engine, over seeded adversarial schedules at partitions 1, 2
// and 4.
func TestParallelTieOrder(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		want := runTieSequential(seed)
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].at == want[i-1].at {
				ties++
			}
		}
		if len(want) < 50 || ties == 0 {
			t.Fatalf("seed %d: degenerate plan (%d events, %d ties) — adversarial schedule lost its teeth", seed, len(want), ties)
		}
		for _, parts := range []int{1, 2, 4} {
			got := runTieParallel(seed, parts)
			if !reflect.DeepEqual(got, want) {
				n := len(got)
				if len(want) < n {
					n = len(want)
				}
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d partitions %d: order diverges at event %d: got %+v, want %+v",
							seed, parts, i, got[i], want[i])
					}
				}
				t.Fatalf("seed %d partitions %d: log length %d, want %d", seed, parts, len(got), len(want))
			}
		}
	}
}

// TestParallelSendBelowLookahead pins the conservative-sync safety check: a
// cross-lane message below the lookahead would let an event invalidate a
// neighbour's already-executed window, so SendKind must refuse it.
func TestParallelSendBelowLookahead(t *testing.T) {
	pe := NewParallel(2)
	var kind Kind
	kind = pe.RegisterKind(func(a, _ any) {
		lane := a.(*Engine)
		defer func() {
			if recover() == nil {
				t.Error("SendKind below lookahead did not panic")
			}
			lane.Stop()
		}()
		lane.SendKind(pe.Lane(1), tieLookahead/2, kind, nil, nil)
	})
	pe.Lane(0).AtKind(0, kind, pe.Lane(0), nil)
	defer func() { recover() }() // the panic propagates out of the lane goroutine's window
	pe.Run(tieLookahead)
}

// tieKey is the heap key one schedule call stamps on its event.
type tieKey struct {
	label uint64
	at    simtime.Time
	ord   uint64
	k     uint32
}

// runTieKeys executes the plan on a single engine — bare, or the lane of a
// one-lane Parallel — and returns the (at, ord, k) key of every schedule
// call in call order. observe runs inside each event before its children are
// scheduled.
func runTieKeys(seed uint64, eng *Engine, register func(TypedHandler) Kind, run func(), observe func(nd *tieNode)) []tieKey {
	var keys []tieKey
	stamp := func(nd *tieNode, at simtime.Time) {
		k := eng.k
		if eng.extK != nil {
			k = *eng.extK
		}
		keys = append(keys, tieKey{nd.label, at, eng.ord, k})
	}
	var kind Kind
	kind = register(func(a, _ any) {
		nd := a.(*tieNode)
		observe(nd)
		tieActions(seed, nd, func(child *tieNode, _ int, d time.Duration) {
			stamp(child, eng.Now().Add(d))
			eng.AfterKind(d, kind, child, nil)
		})
	})
	tieRoots(seed, func(nd *tieNode, _ int, at simtime.Time) {
		stamp(nd, at)
		eng.AtKind(at, kind, nd, nil)
	})
	run()
	return keys
}

// TestOneLaneIsTheSequentialEngine pins the lane-count selection: a one-lane
// Parallel stamps every event with exactly the (at, ord, k) key a bare Engine
// stamps, executes them in the same order, applies each effect inline — so
// in that same order — and never enters the windowed protocol; and the
// effect order equals what the windowed protocol produces at two lanes.
func TestOneLaneIsTheSequentialEngine(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		var bareLog []tieEntry
		bare := New()
		bareKeys := runTieKeys(seed, bare, bare.RegisterKind, func() { bare.Run() }, func(nd *tieNode) {
			bareLog = append(bareLog, tieEntry{nd.label, bare.Now()})
		})

		var effLog []tieEntry
		pe := NewParallel(1)
		lane := pe.Lane(0)
		logK := pe.RegisterEffect(func(at simtime.Time, a, _ any) {
			effLog = append(effLog, tieEntry{a.(*tieNode).label, at})
		})
		laneKeys := runTieKeys(seed, lane, pe.RegisterKind, func() { pe.Run(tieLookahead) }, func(nd *tieNode) {
			before := len(effLog)
			lane.Emit(logK, lane.Now(), nd, nil)
			if len(effLog) != before+1 {
				t.Fatalf("seed %d: one-lane Emit deferred its effect", seed)
			}
		})

		if !reflect.DeepEqual(laneKeys, bareKeys) {
			t.Fatalf("seed %d: one-lane (at, ord, k) keys differ from the bare engine's", seed)
		}
		if !reflect.DeepEqual(effLog, bareLog) {
			t.Fatalf("seed %d: one-lane effect order differs from the bare engine's execution order", seed)
		}
		if pe.gexec != 0 || len(lane.recs) != 0 || len(lane.effs) != 0 {
			t.Fatalf("seed %d: one-lane run entered the windowed protocol (gexec=%d recs=%d effs=%d)",
				seed, pe.gexec, len(lane.recs), len(lane.effs))
		}
		if windowed := runTieParallel(seed, 2); !reflect.DeepEqual(effLog, windowed) {
			t.Fatalf("seed %d: one-lane effect order differs from the two-lane windowed protocol's", seed)
		}
	}
}
