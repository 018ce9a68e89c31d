package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// TestPropertyScheduleOrder is the engine's ordering contract as a property
// test: any random interleaving of AtKind/AfterKind schedules of a closure
// kind and a record kind — including duplicate instants — executes in exact (time, scheduling order). The
// expected order is computed independently with a stable sort, so the test
// does not depend on any heap implementation detail.
func TestPropertyScheduleOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		e := New()
		type sched struct {
			at simtime.Time
			id int
		}
		var planned []sched
		var ran []int
		fn := fnKind(e)
		kRec := e.RegisterKind(func(a, _ any) { ran = append(ran, *a.(*int)) })

		n := 50 + rng.Intn(200)
		ids := make([]int, n)
		for i := 0; i < n; i++ {
			ids[i] = i
			// A coarse instant grid forces plenty of exact ties.
			at := simtime.Time(rng.Int63n(64) * int64(time.Microsecond))
			planned = append(planned, sched{at: at, id: i})
			switch rng.Intn(3) {
			case 0:
				e.AtKind(at, 0, fn, func() { ran = append(ran, i) }, nil)
			case 1:
				e.AfterKind(at.Sub(e.Now()), fn, func() { ran = append(ran, i) }, nil)
			default:
				e.AtKind(at, 0, kRec, &ids[i], nil)
			}
		}
		e.Run()

		sort.SliceStable(planned, func(i, j int) bool { return planned[i].at < planned[j].at })
		if len(ran) != len(planned) {
			t.Fatalf("trial %d: executed %d events, scheduled %d", trial, len(ran), len(planned))
		}
		for i, s := range planned {
			if ran[i] != s.id {
				t.Fatalf("trial %d: position %d ran event %d, want %d (at %v)",
					trial, i, ran[i], s.id, s.at)
			}
		}
	}
}

// TestPropertyFIFOAmongTiesAcrossAPIs verifies the FIFO tie-break holds when
// events of two kinds are interleaved at one instant: scheduling order, not
// kind, decides execution order.
func TestPropertyFIFOAmongTiesAcrossAPIs(t *testing.T) {
	e := New()
	var ran []int
	ids := make([]int, 200)
	fn := fnKind(e)
	k := e.RegisterKind(func(a, _ any) { ran = append(ran, *a.(*int)) })
	at := simtime.FromSeconds(1)
	for i := range ids {
		ids[i] = i
		if i%2 == 0 {
			e.AtKind(at, 0, fn, func() { ran = append(ran, i) }, nil)
		} else {
			e.AtKind(at, 0, k, &ids[i], nil)
		}
	}
	e.Run()
	for i, got := range ran {
		if got != i {
			t.Fatalf("tie order broken at %d: %v...", i, ran[:i+1])
		}
	}
}

// TestTypedEventPayload checks that both payload words reach the handler.
func TestTypedEventPayload(t *testing.T) {
	e := New()
	type node struct{ hits int }
	type pkt struct{ id int }
	n1, p1 := &node{}, &pkt{id: 7}
	var gotPkt *pkt
	k := e.RegisterKind(func(a, b any) {
		a.(*node).hits++
		gotPkt = b.(*pkt)
	})
	e.AfterKind(time.Millisecond, k, n1, p1)
	e.Run()
	if n1.hits != 1 || gotPkt != p1 {
		t.Fatalf("typed handler saw hits=%d pkt=%v, want 1/%v", n1.hits, gotPkt, p1)
	}
}

// TestTypedEventPastPanics checks causality from inside a typed event: a
// kind scheduling another kind in the past panics.
func TestTypedEventPastPanics(t *testing.T) {
	e := New()
	k := e.RegisterKind(func(a, b any) {})
	e.AtKind(simtime.FromSeconds(1), 0, fnKind(e), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling typed event in the past")
			}
		}()
		e.AtKind(simtime.Zero, 0, k, nil, nil)
	}, nil)
	e.Run()
}

// TestUnregisteredKindPanics rejects kinds the engine never issued.
func TestUnregisteredKindPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unregistered kind")
		}
	}()
	e.AtKind(simtime.Zero, 0, Kind(99), nil, nil)
}

// TestTypedSchedulingZeroAlloc checks that once the heap has grown,
// scheduling and draining typed events allocates nothing — a func payload
// included, which is as pointer-shaped as a *int.
func TestTypedSchedulingZeroAlloc(t *testing.T) {
	e := New()
	var fired int
	target := &fired
	k := e.RegisterKind(func(a, _ any) { *a.(*int)++ })
	// Warm the heap past any growth the measured loop could need.
	for i := 0; i < 2048; i++ {
		e.AfterKind(time.Duration(i), k, target, nil)
	}
	e.Run()
	fn, bump := fnKind(e), func() { fired++ }
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			e.AfterKind(time.Duration(i), k, target, nil)
			e.AfterKind(time.Duration(i), fn, bump, nil)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+run allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkTypedScheduleAndRun schedules and drains typed events with up to
// 1 024 in flight.
func BenchmarkTypedScheduleAndRun(b *testing.B) {
	e := New()
	var sink int
	k := e.RegisterKind(func(a, _ any) { *a.(*int)++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterKind(time.Duration(i%1000)*time.Nanosecond, k, &sink, nil)
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}
