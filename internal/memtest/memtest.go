// Package memtest counts what a function allocates with more than one
// processor running, for the garbage gates of the packages whose work
// spreads over goroutines.
package memtest

import "runtime"

// MallocsPerRun is testing.AllocsPerRun at GOMAXPROCS procs rather than 1,
// where nothing the function hands to another goroutine runs beside it: the
// mallocs of runs calls of f, process-wide, per call and rounded down. It
// warms up with as many calls first: the runtime allocates a goroutine
// descriptor until every P's free list holds some, and a helper goroutine
// can start on one P and exit on another.
func MallocsPerRun(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for range runs {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}
