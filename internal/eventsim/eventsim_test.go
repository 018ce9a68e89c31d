package eventsim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// fnKind registers the tests' closure kind: the payload word is a func(),
// which is pointer-shaped, so carrying it in the queue slot allocates nothing.
func fnKind(e *Engine) Kind {
	return e.RegisterKind(func(a, _ any) { a.(func())() })
}

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := New()
	fn := fnKind(e)
	var got []int
	e.AtKind(simtime.FromSeconds(3), 0, fn, func() { got = append(got, 3) }, nil)
	e.AtKind(simtime.FromSeconds(1), 0, fn, func() { got = append(got, 1) }, nil)
	e.AtKind(simtime.FromSeconds(2), 0, fn, func() { got = append(got, 2) }, nil)
	if n := e.Run(); n != 3 {
		t.Fatalf("Run = %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := New()
	fn := fnKind(e)
	var got []int
	at := simtime.FromSeconds(1)
	for i := 0; i < 100; i++ {
		e.AtKind(at, 0, fn, func() { got = append(got, i) }, nil)
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("events at equal instants ran out of scheduling order at %d: %v...", i, got[:i+1])
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var sawAt simtime.Time
	e.AfterKind(5*time.Millisecond, fnKind(e), func() { sawAt = e.Now() }, nil)
	e.Run()
	if sawAt != simtime.FromDuration(5*time.Millisecond) {
		t.Fatalf("handler saw clock %v, want 5ms", sawAt)
	}
	if e.Now() != sawAt {
		t.Fatalf("final clock %v, want %v", e.Now(), sawAt)
	}
}

func TestSchedulingInsideHandler(t *testing.T) {
	e := New()
	fn := fnKind(e)
	var hits int
	var chain func()
	chain = func() {
		hits++
		if hits < 10 {
			e.AfterKind(time.Microsecond, fn, chain, nil)
		}
	}
	e.AtKind(simtime.Zero, 0, fn, chain, nil)
	e.Run()
	if hits != 10 {
		t.Fatalf("hits = %d, want 10", hits)
	}
	if want := simtime.FromDuration(9 * time.Microsecond); e.Now() != want {
		t.Fatalf("clock = %v, want %v", e.Now(), want)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	fn := fnKind(e)
	e.AtKind(simtime.FromSeconds(1), 0, fn, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.AtKind(simtime.Zero, 0, fn, func() {}, nil)
	}, nil)
	e.Run()
}

func TestProcessedCount(t *testing.T) {
	e := New()
	fn := fnKind(e)
	for i := 0; i < 5; i++ {
		e.AfterKind(time.Duration(i), fn, func() {}, nil)
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// TestDeterminismUnderRandomLoad schedules a pseudo-random workload twice and
// requires identical execution traces: the engine is the foundation of every
// reproducibility claim in this repository.
func TestDeterminismUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []simtime.Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		fn := fnKind(e)
		var trace []simtime.Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth > 6 {
				return
			}
			for i := 0; i < rng.Intn(3); i++ {
				d := time.Duration(rng.Intn(1000)) * time.Nanosecond
				e.AfterKind(d, fn, func() { spawn(depth + 1) }, nil)
			}
		}
		for i := 0; i < 50; i++ {
			e.AtKind(simtime.Time(rng.Int63n(1_000_000)), 0, fn, func() { spawn(0) }, nil)
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
