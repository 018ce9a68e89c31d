package queryapi

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func bodyCap(b *[]byte) int { return cap(*b) }

// putFresh puts a new body of capacity n on l, keeping no reference to it.
func putFresh(l *FreeList[[]byte], n int) {
	b := make([]byte, 0, n)
	l.Put(&b)
}

// TestFreeListBounds pins what a FreeList retains while no collection runs:
// at most maxIdle values, none over maxBytes, with IdleBytes accounting
// exactly for what it holds — and that taking and returning a value
// allocates nothing.
func TestFreeListBounds(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l := NewFreeList(2, 1<<10, bodyCap)
	if b := l.Get(); *b != nil || l.IdleBytes() != 0 {
		t.Fatalf("empty list gave %v, holds %d bytes", *b, l.IdleBytes())
	}
	putFresh(l, 100)
	putFresh(l, 2<<10) // over maxBytes: dropped
	putFresh(l, 300)
	putFresh(l, 500) // list full: dropped
	if got := l.IdleBytes(); got != 400 {
		t.Fatalf("list holds %d bytes, want the 100 + 300 it kept", got)
	}
	if b := l.Get(); cap(*b) != 300 || l.IdleBytes() != 100 {
		t.Fatalf("Get gave a %d-byte buffer and left %d bytes, want 300 and 100", cap(*b), l.IdleBytes())
	}
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("a Get and Put allocate %v times", n)
	}
}

// TestFreeListIdleValuesAreCollectable pins the other half of the retention
// bound: a value that sits idle through a garbage collection is freed, so a
// query path that has gone quiet pins nothing, and Get then starts afresh.
func TestFreeListIdleValuesAreCollectable(t *testing.T) {
	l := NewFreeList(2, 1<<20, bodyCap)
	putFresh(l, 1<<16)
	putFresh(l, 1<<16)
	runtime.GC()
	if got := l.IdleBytes(); got != 0 {
		t.Fatalf("after a collection the idle list still holds %d bytes", got)
	}
	if b := l.Get(); cap(*b) != 0 {
		t.Fatalf("Get after a collection gave a %d-byte buffer, want a fresh one", cap(*b))
	}
}
