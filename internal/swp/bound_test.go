package swp

import (
	"io"
	"net"
	"testing"
	"time"
)

// patternByte is byte i of the test stream: position-dependent, so a byte
// delivered twice, dropped or out of order shows.
func patternByte(i int) byte { return byte(i ^ i>>8 ^ i>>17) }

// held is the storage the receiver holds for bytes it has taken in and the
// reader has not: the delivered buffer's capacity and the reorder buffer.
func (r *Receiver) held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := cap(r.buf)
	for _, p := range r.oo {
		n += cap(p)
	}
	return n
}

// TestReceiverBufferBoundedWhileReaderStalls pins the receive bound: with
// its reader stalled for a second while a sender pushes 64 MiB through a
// StreamConn over net.Pipe, the receiver holds at most two windows of
// segments — it stops reading the transport instead of buffering the
// stream — the sender blocks rather than exhausting its retry budget, and
// once the reader drains it every byte arrives exactly once, in order, and
// the drained receiver keeps no storage above one window.
func TestReceiverBufferBoundedWhileReaderStalls(t *testing.T) {
	const total = 64 << 20
	a, b := net.Pipe()
	cfg := Config{}.withDefaults()
	snd := NewSender(NewStreamConn(a), cfg)
	rcv := NewReceiver(NewStreamConn(b), cfg)
	bound := 2 * cfg.Window * cfg.MaxPayload

	sent := make(chan error, 1)
	go func() {
		chunk := make([]byte, 256<<10)
		for off := 0; off < total; off += len(chunk) {
			for i := range chunk {
				chunk[i] = patternByte(off + i)
			}
			if _, err := snd.Write(chunk); err != nil {
				sent <- err
				return
			}
		}
		sent <- snd.Close()
	}()

	// watch samples what the receiver holds until stop closes and returns
	// the most it saw.
	watch := func(stop <-chan struct{}) int {
		peak := 0
		for {
			peak = max(peak, rcv.held())
			select {
			case <-stop:
				return peak
			case <-time.After(time.Millisecond):
			}
		}
	}
	stalled := make(chan struct{})
	time.AfterFunc(time.Second, func() { close(stalled) })
	if peak := watch(stalled); peak > bound {
		t.Fatalf("receiver holds %d bytes under a stalled reader, bound %d", peak, bound)
	} else if peak == 0 {
		t.Fatal("nothing arrived while the reader stalled")
	}

	drained, draining := make(chan struct{}), make(chan int)
	go func() { draining <- watch(drained) }()
	buf := make([]byte, 100<<10)
	n := 0
	for {
		k, err := rcv.Read(buf)
		for i := range buf[:k] {
			if buf[i] != patternByte(n+i) {
				t.Fatalf("byte %d arrived as %#x, want %#x", n+i, buf[i], patternByte(n+i))
			}
		}
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read after %d bytes: %v", n, err)
		}
	}
	close(drained)
	if peak := <-draining; peak > bound {
		t.Fatalf("receiver held %d bytes while the reader drained it, bound %d", peak, bound)
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if n != total {
		t.Fatalf("read %d bytes, sent %d", n, total)
	}
	if peak := rcv.held(); peak > cfg.Window*cfg.MaxPayload {
		t.Fatalf("drained receiver keeps %d bytes, above one window", peak)
	}
	if st := rcv.Stats(); st.Bytes != total {
		t.Fatalf("receiver delivered %d bytes, sent %d", st.Bytes, total)
	}
}

// TestStalledReaderHoldsTheSender pins what a lagging reader costs the
// sender at a short RTO: with a 10 ms RTO and a budget of three
// retransmits, used up after 150 ms without progress, a reader stalled for
// 500 ms still gets every byte once, in order, because the receiver's hold
// acks keep the sender from spending its budget on segments the receiver
// has not read yet. (An RTO much shorter than a window's round trip under
// the race detector times out with no stall at all.)
func TestStalledReaderHoldsTheSender(t *testing.T) {
	const total = 8 << 20
	a, b := net.Pipe()
	cfg := Config{RTO: 10 * time.Millisecond, MaxRetries: 3}
	snd := NewSender(NewStreamConn(a), cfg)
	rcv := NewReceiver(NewStreamConn(b), cfg)

	sent := make(chan error, 1)
	go func() {
		chunk := make([]byte, 256<<10)
		for off := 0; off < total; off += len(chunk) {
			for i := range chunk {
				chunk[i] = patternByte(off + i)
			}
			if _, err := snd.Write(chunk); err != nil {
				sent <- err
				return
			}
		}
		sent <- snd.Close()
	}()

	time.Sleep(500 * time.Millisecond)
	buf := make([]byte, 100<<10)
	n := 0
	for {
		k, err := rcv.Read(buf)
		for i := range buf[:k] {
			if buf[i] != patternByte(n+i) {
				t.Fatalf("byte %d arrived as %#x, want %#x", n+i, buf[i], patternByte(n+i))
			}
		}
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read after %d bytes: %v (sender: %v)", n, err, snd.Err())
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if n != total {
		t.Fatalf("read %d bytes, sent %d", n, total)
	}
	if h := rcv.Stats().Holds; h < 10 {
		t.Fatalf("receiver sent %d holds over a 500 ms stall at a 10 ms RTO, want at least 10", h)
	}
}
