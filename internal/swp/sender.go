package swp

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SenderStats counts what the path did to a transmitting endpoint.
type SenderStats struct {
	// Segments is the number of data segments transmitted for the first
	// time; Bytes is their total payload.
	Segments uint64
	Bytes    uint64
	// Retransmits counts data segments sent again after a timeout, and
	// Timeouts counts retransmit-timer expirations (one timeout may
	// retransmit several segments).
	Retransmits uint64
	Timeouts    uint64
	// AcksReceived counts ack segments processed.
	AcksReceived uint64
}

type pendingSeg struct {
	payload []byte
	retries int
	sacked  bool
}

// Sender is the transmitting half of a reliable connection. It implements
// io.WriteCloser over a SegmentConn: Write chunks the byte stream into
// sequence-numbered data segments, blocks while the in-flight window is
// full, and an internal loop retransmits unacknowledged segments with
// exponential backoff. Close blocks until every outstanding segment has
// been acknowledged. Write and Close are meant for a single goroutine.
type Sender struct {
	t   SegmentConn
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	base    uint32 // oldest unacknowledged seq
	next    uint32 // next seq to assign
	pending map[uint32]*pendingSeg
	rto     time.Duration
	timer   *time.Timer
	// held is set by a hold ack and cleared by any other ack or a timeout:
	// the receiver is alive but its reader lags.
	held   bool
	err    error
	closed bool
	stats  SenderStats
}

// NewSender starts the transmitting state machine over t.
func NewSender(t SegmentConn, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		t:       t,
		cfg:     cfg,
		base:    cfg.InitialSeq,
		next:    cfg.InitialSeq,
		pending: make(map[uint32]*pendingSeg),
		rto:     cfg.RTO,
	}
	s.cond = sync.NewCond(&s.mu)
	go s.ackLoop()
	return s
}

// Write queues p for reliable delivery, blocking while the window is full.
func (s *Sender) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > s.cfg.MaxPayload {
			n = s.cfg.MaxPayload
		}
		s.mu.Lock()
		for s.err == nil && !s.closed && len(s.pending) >= s.cfg.Window {
			s.cond.Wait()
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return written, err
		}
		if s.closed {
			s.mu.Unlock()
			return written, ErrClosed
		}
		seq := s.next
		s.next++
		payload := append([]byte(nil), p[:n]...)
		s.pending[seq] = &pendingSeg{payload: payload}
		if s.timer == nil {
			s.timer = time.AfterFunc(s.rto, s.onTimeout)
		}
		s.stats.Segments++
		s.stats.Bytes += uint64(n)
		s.mu.Unlock()
		if err := s.t.Send(Segment{Type: SegData, Seq: seq, Payload: payload}); err != nil {
			s.fail(err)
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close waits until every outstanding segment is acknowledged
// (retransmitting as needed), then closes the transport. It returns the
// connection's terminal error, if any.
func (s *Sender) Close() error {
	s.mu.Lock()
	s.closed = true
	for s.err == nil && len(s.pending) > 0 {
		s.cond.Wait()
	}
	err := s.err
	s.mu.Unlock()
	if cerr := s.t.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// Err reports the connection's terminal error (nil while healthy).
func (s *Sender) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Sender) ackLoop() {
	for {
		seg, err := s.t.Recv()
		if err != nil {
			s.mu.Lock()
			// An EOF after a clean Close drained the window is the
			// normal shutdown path, not an error.
			if s.err == nil && !(s.closed && len(s.pending) == 0) {
				if err == io.EOF {
					err = ErrClosed
				}
				s.err = err
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if seg.Type != SegAck {
			continue
		}
		if err := s.handleAck(seg); err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *Sender) handleAck(seg Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.AcksReceived++
	s.held = seg.Seq == ackHold
	if seqLT(s.next, seg.Ack) {
		return fmt.Errorf("%w: cumulative ack %d beyond next seq %d",
			ErrAckUnsent, seg.Ack, s.next)
	}
	progress := false
	for seq := s.base; seqLT(seq, seg.Ack); seq++ {
		delete(s.pending, seq)
	}
	if seqLT(s.base, seg.Ack) {
		s.base = seg.Ack
		progress = true
	}
	for i := uint32(0); i < 32; i++ {
		if seg.Sack&(1<<i) == 0 {
			continue
		}
		sacked := seg.Ack + 1 + i
		if !seqLT(sacked, s.next) {
			return fmt.Errorf("%w: selective ack %d beyond next seq %d",
				ErrAckUnsent, sacked, s.next)
		}
		if p := s.pending[sacked]; p != nil && !p.sacked {
			p.sacked = true
			progress = true
		}
	}
	if progress {
		// Forward progress: reset the backoff and restart the clock for
		// whatever is still outstanding.
		s.rto = s.cfg.RTO
		if s.timer != nil {
			s.timer.Stop()
			s.timer = nil
		}
		if len(s.pending) > 0 {
			s.timer = time.AfterFunc(s.rto, s.onTimeout)
		}
	}
	if len(s.pending) == 0 && s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.cond.Broadcast()
	return nil
}

func (s *Sender) onTimeout() {
	s.mu.Lock()
	if s.err != nil || len(s.pending) == 0 {
		s.timer = nil
		s.mu.Unlock()
		return
	}
	// A hold since the last timeout means the receiver has not read what is
	// outstanding yet, not lost it: back off as a retransmission would, but
	// resend nothing and spend no budget.
	held := s.held
	s.held = false
	var resend []Segment
	if !held {
		s.stats.Timeouts++
		for seq := s.base; seqLT(seq, s.next); seq++ {
			p := s.pending[seq]
			if p == nil || p.sacked {
				continue
			}
			p.retries++
			if p.retries > s.cfg.MaxRetries {
				s.err = fmt.Errorf("%w: seq %d unacknowledged after %d transmissions",
					ErrRetryBudgetExhausted, seq, p.retries)
				s.timer = nil
				s.cond.Broadcast()
				s.mu.Unlock()
				s.t.Close()
				return
			}
			resend = append(resend, Segment{Type: SegData, Seq: seq, Payload: p.payload})
		}
	}
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.timer = time.AfterFunc(s.rto, s.onTimeout)
	s.stats.Retransmits += uint64(len(resend))
	s.mu.Unlock()
	for _, seg := range resend {
		if err := s.t.Send(seg); err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *Sender) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.t.Close()
}
