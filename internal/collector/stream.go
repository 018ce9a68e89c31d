package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// DefaultMaxFrameRecords bounds how many records one streamed frame may
// carry. 64k samples is ~1.9 MB of body — far beyond any sane export batch
// — so the bound only ever trips on corrupt or hostile counts, before the
// reader commits memory to them.
const DefaultMaxFrameRecords = 1 << 16

// FrameReader decodes length-delimited wire frames from a byte stream — the
// long-lived service's ingest front-end, where frames arrive over a socket
// and the buffer-oriented DecodeFrame cannot be applied before the frame's
// length is known. It validates each header before reading the body, so a
// corrupt count fails with ErrOversizedFrame instead of a huge allocation,
// and reuses one internal buffer across frames.
type FrameReader struct {
	r io.Reader
	// maxRecords bounds the per-frame record count.
	maxRecords uint32
	buf        []byte
}

// NewFrameReader wraps r. maxRecords <= 0 selects DefaultMaxFrameRecords.
func NewFrameReader(r io.Reader, maxRecords int) *FrameReader {
	if maxRecords <= 0 {
		maxRecords = DefaultMaxFrameRecords
	}
	return &FrameReader{r: r, maxRecords: uint32(maxRecords)}
}

// bodyLen returns the body length implied by a validated header.
func bodyLen(msgType byte, count uint32) (int, error) {
	switch msgType {
	case MsgSamples:
		return int(count) * SampleWireSize, nil
	case MsgRecords:
		return int(count) * RecordWireSize, nil
	case MsgHello:
		if count > MaxHelloLen {
			return 0, fmt.Errorf("%w: hello name %d bytes, max %d", ErrOversizedFrame, count, MaxHelloLen)
		}
		return int(count), nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadMessageType, msgType)
	}
}

// Next reads and decodes one frame. It returns io.EOF on a clean end of
// stream (between frames) and ErrTruncatedFrame when the stream ends inside
// a frame. The returned Frame's slices are freshly allocated and remain
// valid across calls; the internal read buffer is reused.
func (fr *FrameReader) Next() (Frame, error) {
	raw, err := fr.NextRaw()
	if err != nil {
		return Frame{}, err
	}
	f, _, err := DecodeFrame(raw)
	return f, err
}

// RawFrame is one whole wire frame, header and body, exactly as it crossed
// the wire. One returned by FrameReader.NextRaw has a validated header and a
// complete body, so DecodeFrame and Collector.IngestFrame cannot fail on it.
type RawFrame []byte

// Type returns the frame's message type (MsgSamples, MsgRecords, MsgHello).
func (f RawFrame) Type() byte { return f[3] }

// Count returns the header's count field: records in a samples or records
// frame, name bytes in a hello.
func (f RawFrame) Count() int { return int(binary.BigEndian.Uint32(f[4:8])) }

// Delays returns the estimated and true delay of record i of a samples
// frame without decoding its key — what a per-exporter latency summary
// needs from a frame the collector ingests undecoded.
func (f RawFrame) Delays(i int) (est, truth time.Duration) {
	rec := f[FrameHeaderSize+i*SampleWireSize+KeyWireSize:][:16]
	return time.Duration(int64(binary.BigEndian.Uint64(rec[0:8]))),
		time.Duration(int64(binary.BigEndian.Uint64(rec[8:16])))
}

// NextRaw reads one frame like Next but leaves it undecoded, so a samples
// frame can go to Collector.IngestFrame without an intermediate []Sample.
// The returned bytes alias the reader's internal buffer and are valid only
// until the next call.
func (fr *FrameReader) NextRaw() (RawFrame, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// The underlying error stays in the chain: a consumer must be able
		// to tell a force-closed socket (net.ErrClosed) from wire
		// corruption, both of which surface here.
		return nil, fmt.Errorf("%w: stream ended inside a frame header: %w", ErrTruncatedFrame, err)
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != frameMagic {
		return nil, ErrBadFrameMagic
	}
	if hdr[2] != frameVersion {
		return nil, ErrBadVersion
	}
	msgType := hdr[3]
	count := binary.BigEndian.Uint32(hdr[4:8])
	if (msgType == MsgSamples || msgType == MsgRecords) && count > fr.maxRecords {
		return nil, fmt.Errorf("%w: %d records, bound %d", ErrOversizedFrame, count, fr.maxRecords)
	}
	n, err := bodyLen(msgType, count)
	if err != nil {
		return nil, err
	}
	need := FrameHeaderSize + n
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	frame := fr.buf[:need]
	copy(frame, hdr[:])
	if got, err := io.ReadFull(fr.r, frame[FrameHeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: stream ended %d bytes into a %d-byte body: %w",
			ErrTruncatedFrame, got, n, err)
	}
	return frame, nil
}
