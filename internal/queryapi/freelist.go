package queryapi

import (
	"sync"
	"weak"
)

// FreeList keeps the storage queries decode, merge and render into for the
// next query: at most maxIdle values idle, none larger than maxBytes (a
// larger one is dropped on Put, not kept), so it never holds more than
// maxIdle x maxBytes.
//
// An idle value is held weakly: a garbage collection that runs while it is
// idle frees it. A value is idle only between two queries, so a busy query
// path keeps its storage, while one that has gone quiet hands its memory
// back to whatever else the process is doing instead of pinning it (and,
// through the collector's pacing, about twice it in heap). It is not a
// sync.Pool, which bounds neither how many values it holds nor their size,
// and cannot say what it holds.
type FreeList[T any] struct {
	mu       sync.Mutex
	idle     []idleValue[T]
	size     func(*T) int
	maxBytes int
}

type idleValue[T any] struct {
	v     weak.Pointer[T]
	bytes int
}

// NewFreeList returns an empty free list of at most maxIdle values of at
// most maxBytes each, sized by size.
func NewFreeList[T any](maxIdle, maxBytes int, size func(*T) int) *FreeList[T] {
	return &FreeList[T]{idle: make([]idleValue[T], 0, maxIdle), size: size, maxBytes: maxBytes}
}

// Get takes an idle value off the list, or returns a new zero T when none
// is idle.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := len(l.idle); n > 0; n-- {
		e := l.idle[n-1]
		l.idle[n-1] = idleValue[T]{}
		l.idle = l.idle[:n-1]
		if v := e.v.Value(); v != nil {
			return v
		}
	}
	return new(T)
}

// Put hands v back for reuse. It is dropped when it is over the size limit
// or the list is full.
func (l *FreeList[T]) Put(v *T) {
	n := l.size(v)
	if n > l.maxBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < cap(l.idle) {
		l.idle = append(l.idle, idleValue[T]{weak.Make(v), n})
	}
}

// IdleBytes is what the idle values no collection has freed hold, by the
// list's size function.
func (l *FreeList[T]) IdleBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.idle {
		if e.v.Value() != nil {
			n += e.bytes
		}
	}
	return n
}
