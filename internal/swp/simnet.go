package swp

import (
	"io"
	"math/rand"
	"sync"
	"time"
)

// NewSimNet builds an in-process lossy segment path and returns its two
// endpoints: a lossless in-memory pair with each endpoint's outbound
// segments passed through Impair — the first endpoint's stream seeded with
// cfg.Seed, the second's with cfg.Seed+1. Each direction buffers 256
// segments and tail-drops beyond. Closing either endpoint closes the whole
// path; a segment still owed to it afterwards is refused with ErrClosed.
func NewSimNet(cfg ImpairConfig) (SegmentConn, SegmentConn) {
	ab, ba := &memDir{ch: make(chan Segment, 256)}, &memDir{ch: make(chan Segment, 256)}
	rev := cfg
	rev.Seed++
	return Impair(&memEnd{out: ab, in: ba}, cfg), Impair(&memEnd{out: ba, in: ab}, rev)
}

// memDir is one direction of a SimNet: a bounded queue that refuses sends
// once closed.
type memDir struct {
	mu     sync.Mutex
	ch     chan Segment
	closed bool
}

func (d *memDir) send(seg Segment) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	select {
	case d.ch <- seg:
	default: // full queue: tail drop
	}
	return nil
}

func (d *memDir) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		close(d.ch)
	}
}

type memEnd struct {
	out *memDir
	in  *memDir
}

func (e *memEnd) Send(seg Segment) error { return e.out.send(seg) }

func (e *memEnd) Recv() (Segment, error) {
	seg, ok := <-e.in.ch
	if !ok {
		return Segment{}, io.EOF
	}
	return seg, nil
}

func (e *memEnd) Close() error {
	e.out.close()
	e.in.close()
	return nil
}

// delivery is one impaired segment plus the extra latency it owes.
type delivery struct {
	seg   Segment
	delay time.Duration
}

// impairState applies an ImpairConfig's loss model to a stream of
// segments. Callers must serialize apply/flush (Impair guards it with its
// lock).
type impairState struct {
	cfg        ImpairConfig
	rng        *rand.Rand
	pocket     Segment
	havePocket bool
}

func newImpairState(cfg ImpairConfig) *impairState {
	return &impairState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (im *impairState) apply(seg Segment) []delivery {
	seg = copySegment(seg)
	if im.cfg.Drop > 0 && im.rng.Float64() < im.cfg.Drop {
		return nil
	}
	if im.cfg.Reorder > 0 && !im.havePocket && im.rng.Float64() < im.cfg.Reorder {
		// Hold this one back; it rides out behind the next survivor.
		im.pocket = seg
		im.havePocket = true
		return nil
	}
	out := []delivery{{seg: seg, delay: im.delay()}}
	if im.cfg.Dup > 0 && im.rng.Float64() < im.cfg.Dup {
		out = append(out, delivery{seg: copySegment(seg), delay: im.delay()})
	}
	if im.havePocket {
		out = append(out, delivery{seg: im.pocket, delay: im.delay()})
		im.pocket = Segment{}
		im.havePocket = false
	}
	return out
}

func (im *impairState) delay() time.Duration {
	if im.cfg.Delay <= 0 {
		return 0
	}
	return time.Duration(im.rng.Int63n(int64(im.cfg.Delay)))
}

// flush surrenders a held-back segment, if any.
func (im *impairState) flush() (Segment, bool) {
	if !im.havePocket {
		return Segment{}, false
	}
	seg := im.pocket
	im.pocket = Segment{}
	im.havePocket = false
	return seg, true
}

func copySegment(seg Segment) Segment {
	if seg.Payload != nil {
		seg.Payload = append([]byte(nil), seg.Payload...)
	}
	return seg
}

// ImpairConfig shapes a seeded loss model, applied to one endpoint's
// outbound segments. All randomness derives from Seed, so a run's
// drop/duplicate/reorder decisions are reproducible (Delay adds real
// scheduling nondeterminism to arrival order, which the ARQ layer must
// absorb anyway).
type ImpairConfig struct {
	// Seed fixes the impairment random stream.
	Seed int64
	// Drop, Dup and Reorder are per-segment probabilities in [0, 1].
	// Reorder holds a segment back until the next one passes, swapping
	// their arrival order.
	Drop    float64
	Dup     float64
	Reorder float64
	// Delay is the maximum extra latency added to a sent segment; each
	// delayed segment sleeps a uniform fraction of it in its own goroutine.
	Delay time.Duration
}

// Impair wraps a SegmentConn so outbound segments pass through a seeded
// loss model — how cmd/loadgen emulates a lossy export path over a real
// socket: its data segments are dropped/duplicated/reordered before they
// reach the wire, and the ARQ layer has to recover against a live rlird.
// Inbound segments are untouched.
func Impair(c SegmentConn, cfg ImpairConfig) SegmentConn {
	return &impairConn{inner: c, imp: newImpairState(cfg)}
}

type impairConn struct {
	inner SegmentConn
	mu    sync.Mutex
	imp   *impairState
}

func (c *impairConn) Send(seg Segment) error {
	c.mu.Lock()
	out := c.imp.apply(seg)
	c.mu.Unlock()
	for _, dv := range out {
		if dv.delay > 0 {
			go func(seg Segment, delay time.Duration) {
				time.Sleep(delay)
				_ = c.inner.Send(seg)
			}(dv.seg, dv.delay)
			continue
		}
		if err := c.inner.Send(dv.seg); err != nil {
			return err
		}
	}
	return nil
}

func (c *impairConn) Recv() (Segment, error) { return c.inner.Recv() }

func (c *impairConn) Close() error {
	c.mu.Lock()
	seg, ok := c.imp.flush()
	c.mu.Unlock()
	if ok {
		_ = c.inner.Send(seg)
	}
	return c.inner.Close()
}
