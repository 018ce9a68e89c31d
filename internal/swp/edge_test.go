package swp_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/swp"
)

// waitErr polls an endpoint's error until it matches want or the deadline
// passes.
func waitErr(t *testing.T, errOf func() error, want error) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := errOf(); errors.Is(err, want) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no %v within deadline (have %v)", want, errOf())
	return nil
}

// TestAckOfNeverSentSeq drives crafted acks at a sender: acknowledging a
// sequence number it never transmitted is protocol corruption and must kill
// the connection with ErrAckUnsent.
func TestAckOfNeverSentSeq(t *testing.T) {
	t.Run("cumulative", func(t *testing.T) {
		a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
		snd := swp.NewSender(a, swp.Config{RTO: time.Hour})
		if err := b.Send(swp.Segment{Type: swp.SegAck, Ack: 100}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		waitErr(t, snd.Err, swp.ErrAckUnsent)
		if _, err := snd.Write([]byte("x")); !errors.Is(err, swp.ErrAckUnsent) {
			t.Errorf("Write after poisoned ack = %v, want ErrAckUnsent", err)
		}
	})
	t.Run("selective", func(t *testing.T) {
		a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
		snd := swp.NewSender(a, swp.Config{RTO: time.Hour})
		if _, err := snd.Write([]byte("x")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		// Ack nothing cumulatively, but SACK seq 2 — one past the only
		// segment ever sent.
		if err := b.Send(swp.Segment{Type: swp.SegAck, Ack: 1, Sack: 1 << 0}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		waitErr(t, snd.Err, swp.ErrAckUnsent)
	})
}

// TestSeqWraparound pins the initial sequence number just below the top of
// the uint32 space so a lossy transfer crosses the wrap; serial-number
// arithmetic must keep ordering, dedup and acking correct across it.
func TestSeqWraparound(t *testing.T) {
	payload := bytes.Repeat([]byte("wraparound-payload-"), 200) // 3800 B
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 11, Drop: 0.1, Dup: 0.1, Reorder: 0.1})
	cfg := swp.Config{
		InitialSeq: ^uint32(0) - 40, // wraps ~40 segments in
		Window:     16,
		MaxPayload: 16, // 3800 B -> 238 segments, well past the wrap
		RTO:        2 * time.Millisecond,
		MaxRTO:     20 * time.Millisecond,
		MaxRetries: 64,
	}
	snd := swp.NewSender(a, cfg)
	rcv := swp.NewReceiver(b, cfg)
	writeErr := make(chan error, 1)
	go func() {
		_, err := snd.Write(payload)
		if err == nil {
			err = snd.Close()
		}
		writeErr <- err
	}()
	got, err := io.ReadAll(rcv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes differ from %d sent across seq wrap", len(got), len(payload))
	}
}

// TestDuplicateSegmentDelivery hand-feeds duplicates — of a delivered
// segment and of a reorder-buffered one — and checks they are counted and
// delivered exactly once.
func TestDuplicateSegmentDelivery(t *testing.T) {
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
	rcv := swp.NewReceiver(b, swp.Config{})
	send := func(seq uint32, payload string) {
		t.Helper()
		if err := a.Send(swp.Segment{Type: swp.SegData, Seq: seq, Payload: []byte(payload)}); err != nil {
			t.Fatalf("Send seq %d: %v", seq, err)
		}
	}
	send(2, "cd") // ahead of expected: buffered, opens a gap
	send(2, "cd") // duplicate of a buffered segment
	send(1, "ab") // fills the hole
	send(1, "ab") // duplicate of a delivered segment
	got := make([]byte, 4)
	if _, err := io.ReadFull(rcv, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("delivered %q, want %q", got, "abcd")
	}
	// Stats are updated before delivery is readable, but give the read
	// loop a beat for the trailing duplicate.
	deadline := time.Now().Add(5 * time.Second)
	for rcv.Stats().Duplicates != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := rcv.Stats()
	if st.Duplicates != 2 || st.OutOfOrder != 1 || st.Gaps != 1 || st.Segments != 4 {
		t.Errorf("stats = %+v, want 2 duplicates, 1 out-of-order, 1 gap over 4 segments", st)
	}
	if st.Bytes != 4 {
		t.Errorf("delivered %d bytes, want 4 (duplicates must not re-deliver)", st.Bytes)
	}
}

// TestHostilePeerNeverFillsGap plays a peer that opens a gap at the next
// expected sequence number, never fills it, and streams ten windows of
// segments past it. The reorder buffer must stop at Window-1 segments; every
// segment beyond the window is dropped and counted as such, not as a
// duplicate, and nothing is delivered.
func TestHostilePeerNeverFillsGap(t *testing.T) {
	const window = 8
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
	rcv := swp.NewReceiver(b, swp.Config{Window: window})
	const sent = 10 * window
	for seq := uint32(2); seq < 2+sent; seq++ { // seq 1 is the gap
		if err := a.Send(swp.Segment{Type: swp.SegData, Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatalf("Send seq %d: %v", seq, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rcv.Stats().Segments != sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := rcv.Stats()
	if st.Segments != sent || st.OutOfOrder != window-1 || st.BeyondWindow != sent-(window-1) ||
		st.Duplicates != 0 || st.Gaps != 1 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want %d segments: %d buffered, %d beyond the window, 0 duplicates, 1 gap, 0 bytes",
			st, sent, window-1, sent-(window-1))
	}
}

// TestRetryBudgetExhausted sends into a path that drops everything: after
// MaxRetries retransmissions the connection must fail with the typed
// ErrRetryBudgetExhausted, surfaced by Write, Close and Err alike.
func TestRetryBudgetExhausted(t *testing.T) {
	a, _ := swp.NewSimNet(swp.ImpairConfig{Seed: 1, Drop: 1.0})
	snd := swp.NewSender(a, swp.Config{
		RTO:        time.Millisecond,
		MaxRTO:     2 * time.Millisecond,
		MaxRetries: 3,
	})
	if _, err := snd.Write([]byte("doomed")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	waitErr(t, snd.Err, swp.ErrRetryBudgetExhausted)
	if _, err := snd.Write([]byte("more")); !errors.Is(err, swp.ErrRetryBudgetExhausted) {
		t.Errorf("Write after exhaustion = %v, want ErrRetryBudgetExhausted", err)
	}
	if err := snd.Close(); !errors.Is(err, swp.ErrRetryBudgetExhausted) {
		t.Errorf("Close after exhaustion = %v, want ErrRetryBudgetExhausted", err)
	}
	if st := snd.Stats(); st.Retransmits != 3 {
		t.Errorf("retransmits = %d, want exactly MaxRetries = 3", st.Retransmits)
	}
}

// TestTransportCloseWithHoles closes the path while a sequence hole is
// outstanding: delivered bytes stay a strict prefix and the receiver
// reports ErrMissingSegments, not a clean EOF.
func TestTransportCloseWithHoles(t *testing.T) {
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
	rcv := swp.NewReceiver(b, swp.Config{})
	if err := a.Send(swp.Segment{Type: swp.SegData, Seq: 2, Payload: []byte("cd")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := io.ReadAll(rcv); !errors.Is(err, swp.ErrMissingSegments) {
		t.Fatalf("ReadAll = %v, want ErrMissingSegments", err)
	}
	if err := rcv.Err(); !errors.Is(err, swp.ErrMissingSegments) {
		t.Errorf("Err = %v, want ErrMissingSegments", err)
	}
}

// TestSegmentCodec round-trips the wire format and rejects each class of
// corruption with its typed error.
func TestSegmentCodec(t *testing.T) {
	seg := swp.Segment{Type: swp.SegData, Seq: 7, Ack: 3, Sack: 0b1011, Payload: []byte("payload")}
	wire := swp.AppendSegment(nil, seg)
	if len(wire) != swp.SegmentHeaderSize+len(seg.Payload) {
		t.Fatalf("encoded %d bytes, want %d", len(wire), swp.SegmentHeaderSize+len(seg.Payload))
	}
	got, n, err := swp.DecodeSegment(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("DecodeSegment: %v (consumed %d of %d)", err, n, len(wire))
	}
	if got.Type != seg.Type || got.Seq != seg.Seq || got.Ack != seg.Ack ||
		got.Sack != seg.Sack || !bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("round trip mutated segment: %+v != %+v", got, seg)
	}

	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), wire...)
		mutate(c)
		return c
	}
	cases := []struct {
		name string
		src  []byte
		want error
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), swp.ErrBadSegmentMagic},
		{"bad version", corrupt(func(b []byte) { b[2] = 99 }), swp.ErrBadSegmentVersion},
		{"bad type", corrupt(func(b []byte) { b[3] = 9 }), swp.ErrBadSegmentType},
		{"ack with payload", corrupt(func(b []byte) { b[3] = swp.SegAck }), swp.ErrBadSegmentType},
		{"oversized", corrupt(func(b []byte) { b[16], b[17] = 0xFF, 0xFF }), swp.ErrOversizedSegment},
		{"truncated header", wire[:swp.SegmentHeaderSize-1], swp.ErrTruncatedSegment},
		{"truncated payload", wire[:len(wire)-1], swp.ErrTruncatedSegment},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := swp.DecodeSegment(tc.src); !errors.Is(err, tc.want) {
				t.Errorf("DecodeSegment(%s) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}

	oversized := swp.Segment{Type: swp.SegData, Payload: []byte(strings.Repeat("x", swp.MaxSegmentPayload+1))}
	if _, _, err := swp.DecodeSegment(swp.AppendSegment(nil, oversized)); !errors.Is(err, swp.ErrOversizedSegment) {
		t.Errorf("oversized payload = %v, want ErrOversizedSegment", err)
	}
}

// TestReceiverCloseUnblocksRead verifies a blocked Read wakes with
// ErrClosed when the receiver is torn down locally.
func TestReceiverCloseUnblocksRead(t *testing.T) {
	_, b := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
	rcv := swp.NewReceiver(b, swp.Config{})
	readErr := make(chan error, 1)
	go func() {
		_, err := rcv.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := rcv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-readErr:
		if !errors.Is(err, swp.ErrClosed) {
			t.Errorf("Read after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read still blocked after Close")
	}
}

// TestSimNetSendAfterClose pins a closed SimNet's refusals: a send after
// Close fails with ErrClosed, and a delayed segment that comes due after
// Close is refused the same way instead of reaching a closed queue.
func TestSimNetSendAfterClose(t *testing.T) {
	// Seed 3's first delay is 14ms of the 20ms bound.
	a, b := swp.NewSimNet(swp.ImpairConfig{Seed: 3, Delay: 20 * time.Millisecond})
	if err := a.Send(swp.Segment{Type: swp.SegData, Seq: 1, Payload: []byte("late")}); err != nil {
		t.Fatalf("Send before Close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if seg, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv after Close = %+v, %v; want io.EOF", seg, err)
	}
	time.Sleep(30 * time.Millisecond) // the delayed send comes due
	c, _ := swp.NewSimNet(swp.ImpairConfig{Seed: 1})
	c.Close()
	if err := c.Send(swp.Segment{Type: swp.SegData, Seq: 1}); !errors.Is(err, swp.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}
