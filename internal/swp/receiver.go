package swp

import (
	"io"
	"sync"
	"time"
)

// ReceiverStats counts what the path did to a receiving endpoint.
type ReceiverStats struct {
	// Segments is the number of data segments that arrived, including
	// duplicates; Bytes is the payload delivered to the reader.
	Segments uint64
	Bytes    uint64
	// Duplicates counts data segments already delivered or buffered —
	// retransmissions whose original made it, or path-level duplication.
	Duplicates uint64
	// BeyondWindow counts data segments dropped for lying a window or more
	// past the next expected sequence number: traffic no conforming sender
	// could have in flight.
	BeyondWindow uint64
	// OutOfOrder counts segments that arrived ahead of the next expected
	// sequence number and were reorder-buffered; Gaps counts the times
	// such a segment opened a fresh hole (a new loss/reorder episode).
	OutOfOrder uint64
	Gaps       uint64
	// AcksSent counts ack segments transmitted, holds included; Holds
	// counts the hold acks sent while the reader lagged.
	AcksSent uint64
	Holds    uint64
}

// Receiver is the receiving half of a reliable connection. It implements
// io.Reader over a SegmentConn: data segments are deduplicated by sequence
// number, reorder-buffered, and delivered strictly in order, each arrival
// acknowledged cumulatively plus selectively. A transport that closes while
// sequence holes remain yields ErrMissingSegments; a clean close yields
// io.EOF.
//
// Delivered bytes wait for Read in a buffer bounded to one window of full
// segments (Window × MaxPayload): while it has no room for another segment
// the receiver reads nothing from the transport, so it acknowledges no new
// data and the sender's window, then its Write, blocks until the reader
// catches up. (Releasing the reorder buffer can overshoot the bound by what
// it held, at most a window.) So that the sender does not take that wait for
// loss, the receiver sends a hold ack on entering it and every half RTO
// while it lasts: a sender that has seen one since its last timeout backs
// its timer off without retransmitting or spending retry budget, however
// long the reader lags. Storage above the bound is dropped once Read drains the
// buffer, so an idle connection does not keep what a burst grew.
type Receiver struct {
	t   SegmentConn
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	expected uint32            // next in-order seq
	oo       map[uint32][]byte // reorder buffer: seq -> payload
	buf      []byte            // delivered bytes awaiting Read, from off
	off      int
	limit    int // bound on delivered bytes awaiting Read: one window
	err      error
	stats    ReceiverStats
}

// NewReceiver starts the receiving state machine over t. cfg.InitialSeq and
// cfg.Window must match the peer sender's, and cfg.RTO should not exceed
// it, or a lagging reader's holds come too seldom to save the sender's
// retry budget.
func NewReceiver(t SegmentConn, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{
		t:        t,
		cfg:      cfg,
		expected: cfg.InitialSeq,
		oo:       make(map[uint32][]byte),
		limit:    cfg.Window * cfg.MaxPayload,
	}
	r.cond = sync.NewCond(&r.mu)
	go r.readLoop()
	return r
}

// Read returns in-order delivered bytes, blocking until some arrive or the
// connection reaches a terminal state.
func (r *Receiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.off == len(r.buf) && r.err == nil {
		r.cond.Wait()
	}
	if r.off < len(r.buf) {
		n := copy(p, r.buf[r.off:])
		r.off += n
		if r.off == len(r.buf) {
			r.buf = r.buf[:0]
			if cap(r.buf) > r.limit {
				r.buf = nil
			}
			r.off = 0
		}
		if len(r.buf)-r.off <= r.limit/2 {
			// Room for the read loop, if it waits for some: half the bound,
			// so it takes in many segments per wake-up, not one.
			r.cond.Broadcast()
		}
		return n, nil
	}
	return 0, r.err
}

// Close tears down the connection; a blocked Read returns ErrClosed.
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.err == nil {
		r.err = ErrClosed
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return r.t.Close()
}

// Err reports the connection's terminal state: nil while healthy, io.EOF
// after a clean close, ErrMissingSegments if the transport closed with
// holes outstanding.
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Receiver) readLoop() {
	for {
		r.waitForRoom()
		seg, err := r.t.Recv()
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				if err == io.EOF {
					if len(r.oo) > 0 {
						err = ErrMissingSegments
					}
					// else: clean end of stream, err stays io.EOF
				}
				r.err = err
			}
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		if seg.Type != SegData {
			continue
		}
		ack := r.handleData(seg)
		// Ack every arrival, duplicates included — a duplicate usually
		// means the peer lost our previous ack. Transport failures here
		// surface through Recv on the next iteration.
		_ = r.t.Send(ack)
	}
}

// waitForRoom blocks while the bytes awaiting Read leave no room for
// another segment, sending a hold ack on entry and every half RTO after.
// Transport failures surface through Recv once there is room, or through
// Close.
func (r *Receiver) waitForRoom() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.full() {
		hold := r.ack()
		hold.Seq = ackHold
		r.stats.Holds++
		r.mu.Unlock()
		_ = r.t.Send(hold)
		r.mu.Lock()
		if !r.full() {
			return
		}
		// Armed under mu, the wake-up cannot broadcast before Wait.
		wake := time.AfterFunc(r.cfg.RTO/2, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		r.cond.Wait() // until Read drains some, Close, or the next hold is due
		wake.Stop()
	}
}

// full reports whether a healthy receiver has no room for another segment.
// The caller holds mu.
func (r *Receiver) full() bool {
	return r.err == nil && len(r.buf)-r.off > r.limit-r.cfg.MaxPayload
}

// handleData applies one data segment to the reassembly state and returns
// the ack to send for it.
func (r *Receiver) handleData(seg Segment) Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Segments++
	seq := seg.Seq
	switch {
	case seqLT(seq, r.expected):
		r.stats.Duplicates++
	case seq == r.expected:
		r.deliver(seg.Payload)
		r.expected++
		for {
			payload, ok := r.oo[r.expected]
			if !ok {
				break
			}
			delete(r.oo, r.expected)
			r.deliver(payload)
			r.expected++
		}
		r.cond.Broadcast()
	default:
		if _, dup := r.oo[seq]; dup {
			r.stats.Duplicates++
		} else if seq-r.expected >= uint32(r.cfg.Window) {
			// Beyond any window a conforming sender could have open:
			// drop it, but still re-ack below.
			r.stats.BeyondWindow++
		} else {
			if len(r.oo) == 0 {
				r.stats.Gaps++
			}
			r.oo[seq] = append([]byte(nil), seg.Payload...)
			r.stats.OutOfOrder++
		}
	}
	return r.ack()
}

// ack returns the ack of the receiver's reassembly state, counted as sent.
// The caller holds mu.
func (r *Receiver) ack() Segment {
	var sack uint32
	for i := uint32(0); i < 32; i++ {
		if _, ok := r.oo[r.expected+1+i]; ok {
			sack |= 1 << i
		}
	}
	r.stats.AcksSent++
	return Segment{Type: SegAck, Ack: r.expected, Sack: sack}
}

// deliver appends an in-order payload to the bytes awaiting Read. Out of
// room, it first moves the unread bytes to the front, and grows the buffer
// only when that is not enough — doubling, but not past the bound unless
// the payload needs it, so the storage Read keeps stays within one window.
func (r *Receiver) deliver(payload []byte) {
	if len(r.buf)+len(payload) > cap(r.buf) {
		unread := r.buf[r.off:]
		if need := len(unread) + len(payload); need <= cap(r.buf) {
			r.buf = r.buf[:copy(r.buf, unread)]
		} else {
			r.buf = append(make([]byte, 0, max(min(2*cap(r.buf), r.limit), need)), unread...)
		}
		r.off = 0
	}
	r.buf = append(r.buf, payload...)
	r.stats.Bytes += uint64(len(payload))
}
