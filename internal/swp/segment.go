package swp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Wire format of one segment, on byte-stream transports:
//
//	offset size field
//	0      2    magic 0x5357 ("SW")
//	2      1    version (1)
//	3      1    segment type (1 = data, 2 = ack)
//	4      4    seq (data: this segment's sequence number; ack: 1 for a
//	            hold — the receiver is alive, its reader lags — else 0)
//	8      4    cumulative ack: the receiver's next expected seq — every
//	            seq before it has been received
//	12     4    SACK bitmap: bit i set means seq ack+1+i was received
//	            out of order
//	16     4    payload length (data only; ack carries none)
//	20     ...  payload bytes
//
// Multi-byte fields are big endian, like the collector frame codec. The
// leading magic differs from the collector codec's 0x5246, which is how the
// service tells a reliable session from raw frames on the first bytes of a
// connection.
const (
	segMagic   = 0x5357
	segVersion = 1

	// SegData carries payload; SegAck carries only acknowledgment state.
	SegData = 1
	SegAck  = 2

	// SegmentHeaderSize is the fixed segment prefix.
	SegmentHeaderSize = 20
	// MaxSegmentPayload bounds one segment's payload — the decoder's
	// worst-case allocation for an untrusted length field.
	MaxSegmentPayload = 64 << 10
)

// Errors returned by the segment codec and the transfer state machines.
var (
	ErrBadSegmentMagic   = errors.New("swp: segment has wrong magic")
	ErrBadSegmentVersion = errors.New("swp: unsupported segment version")
	ErrBadSegmentType    = errors.New("swp: unknown segment type")
	ErrOversizedSegment  = errors.New("swp: segment payload exceeds bound")
	ErrTruncatedSegment  = errors.New("swp: stream ended inside a segment")
	// ErrAckUnsent means the peer acknowledged a sequence number this
	// sender never transmitted — protocol corruption, fatal.
	ErrAckUnsent = errors.New("swp: ack for a never-sent sequence number")
	// ErrRetryBudgetExhausted means a segment was retransmitted MaxRetries
	// times without acknowledgment; the connection is closed.
	ErrRetryBudgetExhausted = errors.New("swp: retransmit budget exhausted")
	// ErrMissingSegments means the transport closed while sequence holes
	// remained — delivered bytes are a strict prefix, but the transfer is
	// incomplete.
	ErrMissingSegments = errors.New("swp: transport closed with undelivered segments")
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("swp: endpoint closed")
)

// ackHold is an ack's Seq when it is a hold: sent by a receiver whose
// unread bytes fill its buffer, so the sender waits instead of treating the
// silence as loss. A receiver that never sends holds leaves Seq 0.
const ackHold = 1

// Segment is one decoded transport segment.
type Segment struct {
	// Type is SegData or SegAck.
	Type byte
	// Seq is a data segment's sequence number, or ackHold on a hold ack.
	Seq uint32
	// Ack is the cumulative acknowledgment: the next expected seq.
	Ack uint32
	// Sack is the selective-ack bitmap: bit i set means seq Ack+1+i was
	// received out of order.
	Sack uint32
	// Payload is a data segment's bytes (nil for acks).
	Payload []byte
}

// Detect reports whether b begins with the swp segment magic — how a
// server peeking at a fresh connection's first bytes decides between the
// reliable framing and raw collector frames, whose magic differs.
func Detect(b []byte) bool {
	return len(b) >= 2 && binary.BigEndian.Uint16(b[0:2]) == segMagic
}

// seqLT compares sequence numbers in serial-number arithmetic, so windows
// that wrap the uint32 space order correctly (RFC 1982 style: a < b iff the
// signed distance from a to b is positive).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ is serial-arithmetic a <= b.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// AppendSegment appends seg's wire encoding to dst and returns the
// extended slice.
func AppendSegment(dst []byte, seg Segment) []byte {
	var h [SegmentHeaderSize]byte
	binary.BigEndian.PutUint16(h[0:2], segMagic)
	h[2] = segVersion
	h[3] = seg.Type
	binary.BigEndian.PutUint32(h[4:8], seg.Seq)
	binary.BigEndian.PutUint32(h[8:12], seg.Ack)
	binary.BigEndian.PutUint32(h[12:16], seg.Sack)
	binary.BigEndian.PutUint32(h[16:20], uint32(len(seg.Payload)))
	dst = append(dst, h[:]...)
	return append(dst, seg.Payload...)
}

// decodeSegmentHeader validates a segment header and returns its type and
// payload length.
func decodeSegmentHeader(h []byte) (typ byte, n int, err error) {
	if binary.BigEndian.Uint16(h[0:2]) != segMagic {
		return 0, 0, ErrBadSegmentMagic
	}
	if h[2] != segVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadSegmentVersion, h[2])
	}
	typ = h[3]
	if typ != SegData && typ != SegAck {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadSegmentType, typ)
	}
	length := binary.BigEndian.Uint32(h[16:20])
	if length > MaxSegmentPayload {
		return 0, 0, fmt.Errorf("%w: %d bytes, max %d", ErrOversizedSegment, length, MaxSegmentPayload)
	}
	if typ == SegAck && length != 0 {
		return 0, 0, fmt.Errorf("%w: ack with %d payload bytes", ErrBadSegmentType, length)
	}
	return typ, int(length), nil
}

// DecodeSegment decodes one segment from the front of src and returns it
// with the number of bytes consumed.
func DecodeSegment(src []byte) (Segment, int, error) {
	if len(src) < SegmentHeaderSize {
		return Segment{}, 0, ErrTruncatedSegment
	}
	typ, n, err := decodeSegmentHeader(src[:SegmentHeaderSize])
	if err != nil {
		return Segment{}, 0, err
	}
	if len(src) < SegmentHeaderSize+n {
		return Segment{}, 0, fmt.Errorf("%w: %d payload bytes, have %d",
			ErrTruncatedSegment, n, len(src)-SegmentHeaderSize)
	}
	seg := Segment{
		Type: typ,
		Seq:  binary.BigEndian.Uint32(src[4:8]),
		Ack:  binary.BigEndian.Uint32(src[8:12]),
		Sack: binary.BigEndian.Uint32(src[12:16]),
	}
	if n > 0 {
		seg.Payload = append([]byte(nil), src[SegmentHeaderSize:SegmentHeaderSize+n]...)
	}
	return seg, SegmentHeaderSize + n, nil
}

// Config tunes a Sender/Receiver pair. The zero value selects defaults
// sized for export connections: a 64-segment window of 16 KiB segments, a
// 200 ms initial retransmit timeout backing off to 5 s, and an 8-retransmit
// budget per segment.
type Config struct {
	// Window bounds unacknowledged data segments in flight (default 64).
	Window int
	// MaxPayload bounds one data segment's payload bytes (default 16 KiB,
	// capped at MaxSegmentPayload).
	MaxPayload int
	// RTO is the initial retransmit timeout (default 200 ms); it doubles on
	// every consecutive timeout up to MaxRTO (default 5 s) and resets when
	// an ack makes progress.
	RTO    time.Duration
	MaxRTO time.Duration
	// MaxRetries is the per-segment retransmit budget; exceeding it fails
	// the connection with ErrRetryBudgetExhausted (default 8).
	MaxRetries int
	// InitialSeq is the first data segment's sequence number (default 1).
	// Tests pin it near the top of the space to prove wraparound.
	InitialSeq uint32
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 16 << 10
	}
	if c.MaxPayload > MaxSegmentPayload {
		c.MaxPayload = MaxSegmentPayload
	}
	if c.RTO <= 0 {
		c.RTO = 200 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 5 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.InitialSeq == 0 {
		c.InitialSeq = 1
	}
	return c
}
