package scenario

import "time"

// pipe carries records in order between the simulator's goroutine — the
// near side, which calls every method here — and one goroutine beside it,
// the far side. Records travel in fixed-size chunks that circulate: the
// writing side fills a chunk and hands it over, the reading side empties it
// and hands it back. Both channels can hold every chunk, so no send ever
// blocks; a side waits only to receive. A side that is done closes the
// channel it sends on, and the other side's receive sees it go.
//
// The same contract holds in either direction:
//   - records arrive in the order they were written;
//   - a panic on the far side ends it, and the near side re-raises the value
//     on its own goroutine once it needs the far side again — at its next
//     hand-off, or at close;
//   - close (or stop) returns only after the far goroutine has exited, so a
//     run that closes every pipe it started leaves no goroutine behind.
type pipe[T any] struct {
	toFar, toNear chan *chunk[T]
	// exit carries the far goroutine's exit, nil or the value it panicked
	// with; wait takes it once and then clears the field.
	exit    chan any
	cur     *chunk[T] // the near side's chunk
	i       int       // a reading near side's position in cur
	writing bool      // the near side writes: stop hands cur over
	stopped bool      // the near side has closed toFar
	stats   pipeStats
}

// chunk is one hand-off: recs[:n] are the records written into it.
type chunk[T any] struct {
	n    int
	recs []T
}

// pipeStats counts a pipe's hand-offs as the simulator's goroutine saw them:
// the chunks it received and the far side's exit, how many of those were not
// ready when it asked, and the wall time it spent waiting for them. They
// depend on thread scheduling, not on (spec, seed), so they stay out of
// Result.
type pipeStats struct {
	handoffs, blocked int
	wait              time.Duration
}

func (s *pipeStats) add(o pipeStats) {
	s.handoffs += o.handoffs
	s.blocked += o.blocked
	s.wait += o.wait
}

// receive takes the next value from ch, counting the hand-off in s and, if
// the value was not ready, the wait.
func receive[V any](s *pipeStats, ch <-chan V) (v V, ok bool) {
	s.handoffs++
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	s.blocked++
	t0 := time.Now()
	v, ok = <-ch
	s.wait += time.Since(t0)
	return v, ok
}

// newPipe returns a pipe of count chunks; consume or produce sizes them and
// starts the far side.
func newPipe[T any](count int) *pipe[T] {
	return &pipe[T]{
		toFar:  make(chan *chunk[T], count),
		toNear: make(chan *chunk[T], count),
		exit:   make(chan any, 1),
	}
}

// start puts the pipe's chunks, empty, in the writing side's inbox and runs
// far on a goroutine of its own. When far returns or panics, the goroutine
// posts its exit and closes the channel it sends on.
func (q *pipe[T]) start(inbox chan *chunk[T], size int, far func()) {
	for range cap(inbox) {
		inbox <- &chunk[T]{recs: make([]T, size)}
	}
	go func() {
		defer func() {
			q.exit <- recover()
			close(q.toNear)
		}()
		far()
	}()
}

// consume starts a far side that reads: consume runs on each chunk's records
// in hand-off order. The near side writes through slot.
func (q *pipe[T]) consume(size int, consume func([]T)) {
	q.writing = true
	q.start(q.toNear, size, func() {
		for c := range q.toFar {
			consume(c.recs[:c.n])
			c.n = 0
			q.toNear <- c
		}
	})
}

// produce starts a far side that writes: produce fills one record at a time
// until it reports the stream exhausted. The near side reads through read.
// A near side that closes early stops the producer after the chunk it is
// filling and those already handed back to it.
func (q *pipe[T]) produce(size int, produce func(*T) bool) {
	q.start(q.toFar, size, func() {
		for c := range q.toFar {
			n := 0
			for n < size && produce(&c.recs[n]) {
				n++
			}
			c.n = n
			q.toNear <- c
			if n < size {
				return
			}
		}
	})
}

// slot returns the next record for a writing near side to fill, handing
// the current chunk over first when it is full.
func (q *pipe[T]) slot() *T {
	c := q.cur
	if c == nil || c.n == len(c.recs) {
		q.cur = nil // handed over: stop must not send it again
		c = q.swap(c)
		q.cur = c
	}
	rec := &c.recs[c.n]
	c.n++
	return rec
}

// read returns the next record for a reading near side, or false once the
// far side has finished. The record stays valid until the next read.
func (q *pipe[T]) read() (*T, bool) {
	for q.cur == nil || q.i == q.cur.n {
		c := q.cur
		q.cur, q.i = nil, 0
		if q.cur = q.swap(c); q.cur == nil {
			return nil, false
		}
	}
	rec := &q.cur.recs[q.i]
	q.i++
	return rec, true
}

// swap hands c (if any) to the far side and receives the next chunk from it.
// If the far side has exited, swap joins it: it re-raises the far side's
// panic, or returns nil when the far side finished.
func (q *pipe[T]) swap(c *chunk[T]) *chunk[T] {
	if c != nil {
		q.toFar <- c
	}
	c, ok := receive(&q.stats, q.toNear)
	if !ok {
		if failure := q.wait(); failure != nil {
			panic(failure)
		}
	}
	return c
}

// close is stop that re-raises the far side's panic, unless swap already
// has.
func (q *pipe[T]) close() {
	if failure := q.stop(); failure != nil {
		panic(failure)
	}
}

// stop ends the near side, once: a writing side's partial chunk goes to the
// far side, which is told no more is coming. It then waits for the far
// goroutine to exit and returns the value it panicked with, if no call has
// taken it yet.
func (q *pipe[T]) stop() any {
	if !q.stopped {
		q.stopped = true
		if q.writing && q.cur != nil {
			q.toFar <- q.cur
		}
		q.cur = nil
		close(q.toFar)
	}
	return q.wait()
}

// wait waits for the far goroutine's exit and returns its panic value, once;
// later calls return nil at once.
func (q *pipe[T]) wait() any {
	if q.exit == nil {
		return nil
	}
	failure, _ := receive(&q.stats, q.exit)
	q.exit = nil
	return failure
}
