package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
	"unicode/utf8"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Wire format of the measurement plane: the compact binary export that RLI
// receivers and NetFlow exporters ship batches to a collector in, in the
// spirit of a NetFlow/IPFIX export packet. One frame is one batch:
//
//	offset size field
//	0      2    magic 0x5246 ("RF", "RLIR Flow")
//	2      1    version (1)
//	3      1    message type (1 = samples, 2 = flow records, 3 = hello)
//	4      4    record count (big endian)
//	8      ...  count fixed-size records (hello: count name bytes)
//
// Sample record (SampleWireSize = 29 bytes):
//
//	src 4 | dst 4 | srcPort 2 | dstPort 2 | proto 1 | est ns 8 | true ns 8
//
// Flow record (RecordWireSize = 45 bytes):
//
//	key 13 (as above) | first ns 8 | last ns 8 | packets 8 | bytes 8
//
// Multi-byte fields are big endian; timestamps and delays are two's
// complement nanoseconds.
const (
	frameMagic   = 0x5246
	frameVersion = 1

	// MsgSamples frames carry []Sample; MsgRecords frames carry
	// []netflow.Record; MsgHello frames carry the exporter's name (the
	// count field holds the name's byte length).
	MsgSamples = 1
	MsgRecords = 2
	MsgHello   = 3

	// FrameHeaderSize is the fixed frame prefix.
	FrameHeaderSize = 8
	// KeyWireSize is the encoded 5-tuple (the "key 13" of the layouts above
	// and of the queryapi snapshot wire).
	KeyWireSize = 13
	// SampleWireSize is one encoded Sample.
	SampleWireSize = KeyWireSize + 16
	// RecordWireSize is one encoded netflow.Record.
	RecordWireSize = KeyWireSize + 32
	// MaxHelloLen bounds a hello frame's exporter name: identities are
	// human-chosen labels, and the bound keeps the frame reader's worst-case
	// allocation for untrusted hello counts trivial.
	MaxHelloLen = 255
)

// Errors returned by DecodeFrame and FrameReader.
var (
	ErrShortFrame     = errors.New("collector: frame shorter than header")
	ErrBadFrameMagic  = errors.New("collector: frame has wrong magic")
	ErrBadVersion     = errors.New("collector: unsupported frame version")
	ErrBadMessageType = errors.New("collector: unknown frame message type")
	ErrTruncatedFrame = errors.New("collector: frame truncated mid-batch")
	ErrOversizedFrame = errors.New("collector: frame exceeds the reader's record bound")
)

func appendHeader(dst []byte, msgType byte, count int) []byte {
	var h [FrameHeaderSize]byte
	binary.BigEndian.PutUint16(h[0:2], frameMagic)
	h[2] = frameVersion
	h[3] = msgType
	binary.BigEndian.PutUint32(h[4:8], uint32(count))
	return append(dst, h[:]...)
}

// AppendKey appends the KeyWireSize-byte encoding of k to dst.
func AppendKey(dst []byte, k packet.FlowKey) []byte {
	var b [KeyWireSize]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(k.Src))
	binary.BigEndian.PutUint32(b[4:8], uint32(k.Dst))
	binary.BigEndian.PutUint16(b[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], k.DstPort)
	b[12] = byte(k.Proto)
	return append(dst, b[:]...)
}

// DecodeKey decodes a flow key from the first KeyWireSize bytes of src; the
// caller has checked that many are there.
func DecodeKey(src []byte) packet.FlowKey {
	return packet.FlowKey{
		Src:     packet.Addr(binary.BigEndian.Uint32(src[0:4])),
		Dst:     packet.Addr(binary.BigEndian.Uint32(src[4:8])),
		SrcPort: binary.BigEndian.Uint16(src[8:10]),
		DstPort: binary.BigEndian.Uint16(src[10:12]),
		Proto:   packet.Proto(src[12]),
	}
}

func appendInt64(dst []byte, v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return append(dst, b[:]...)
}

// AppendSamples appends one MsgSamples frame holding batch to dst and
// returns the extended slice. An empty batch encodes a valid empty frame.
func AppendSamples(dst []byte, batch []Sample) []byte {
	dst = appendHeader(dst, MsgSamples, len(batch))
	for _, s := range batch {
		dst = AppendKey(dst, s.Key)
		dst = appendInt64(dst, int64(s.Est))
		dst = appendInt64(dst, int64(s.True))
	}
	return dst
}

// AppendRecords appends one MsgRecords frame holding recs to dst and
// returns the extended slice.
func AppendRecords(dst []byte, recs []netflow.Record) []byte {
	dst = appendHeader(dst, MsgRecords, len(recs))
	for _, r := range recs {
		dst = AppendKey(dst, r.Key)
		dst = appendInt64(dst, int64(r.First))
		dst = appendInt64(dst, int64(r.Last))
		dst = appendInt64(dst, int64(r.Packets))
		dst = appendInt64(dst, int64(r.Bytes))
	}
	return dst
}

// HelloName returns the exporter name AppendHello actually puts on the
// wire: name unchanged if it fits MaxHelloLen bytes, otherwise truncated at
// a UTF-8 rune boundary so the wire never carries a torn rune. A name whose
// first MaxHelloLen bytes are all continuation bytes (malformed UTF-8)
// truncates to empty.
func HelloName(name string) string {
	if len(name) <= MaxHelloLen {
		return name
	}
	cut := MaxHelloLen
	for cut > 0 && !utf8.RuneStart(name[cut]) {
		cut--
	}
	return name[:cut]
}

// AppendHello appends one MsgHello frame declaring the exporter's name to
// dst and returns the extended slice. Long-lived export connections send it
// first so the collecting service can attribute everything that follows to
// a named router; names longer than MaxHelloLen are truncated at a rune
// boundary — HelloName reports what will be sent.
func AppendHello(dst []byte, name string) []byte {
	name = HelloName(name)
	dst = appendHeader(dst, MsgHello, len(name))
	return append(dst, name...)
}

// Frame is one decoded wire frame; exactly one of Samples/Records/Hello is
// populated (matching the message type).
type Frame struct {
	Samples []Sample
	Records []netflow.Record
	// Hello is the exporter name carried by a MsgHello frame. An empty name
	// on the wire is indistinguishable from the field's zero value; use Type
	// to dispatch.
	Hello string
	// Type is the decoded frame's message type (MsgSamples, MsgRecords,
	// MsgHello).
	Type byte
}

// DecodeFrame decodes one frame from the front of src and returns it along
// with the number of bytes consumed, so concatenated frames stream through
// repeated calls.
func DecodeFrame(src []byte) (Frame, int, error) {
	msgType, count, body, err := parseHeader(src)
	if err != nil {
		return Frame{}, 0, err
	}
	switch msgType {
	case MsgSamples:
		out := make([]Sample, count)
		for i := range out {
			out[i] = decodeSample(body[i*SampleWireSize:])
		}
		return Frame{Samples: out, Type: MsgSamples}, FrameHeaderSize + count*SampleWireSize, nil
	case MsgRecords:
		need := count * RecordWireSize
		out := make([]netflow.Record, count)
		for i := range out {
			rec := body[i*RecordWireSize:]
			out[i] = netflow.Record{
				Key:     DecodeKey(rec),
				First:   simtime.Time(int64(binary.BigEndian.Uint64(rec[KeyWireSize : KeyWireSize+8]))),
				Last:    simtime.Time(int64(binary.BigEndian.Uint64(rec[KeyWireSize+8 : KeyWireSize+16]))),
				Packets: binary.BigEndian.Uint64(rec[KeyWireSize+16 : KeyWireSize+24]),
				Bytes:   binary.BigEndian.Uint64(rec[KeyWireSize+24 : KeyWireSize+32]),
			}
		}
		return Frame{Records: out, Type: MsgRecords}, FrameHeaderSize + need, nil
	default: // MsgHello: parseHeader admits no other type
		return Frame{Hello: string(body[:count]), Type: MsgHello}, FrameHeaderSize + count, nil
	}
}

// parseHeader validates the frame at the front of src — magic, version,
// message type, and that the whole body the count implies is present — and
// returns the type, the count and the bytes after the header. It is the one
// place a count off the wire is trusted, so everything downstream indexes
// body without further checks.
func parseHeader(src []byte) (msgType byte, count int, body []byte, err error) {
	if len(src) < FrameHeaderSize {
		return 0, 0, nil, ErrShortFrame
	}
	if binary.BigEndian.Uint16(src[0:2]) != frameMagic {
		return 0, 0, nil, ErrBadFrameMagic
	}
	if src[2] != frameVersion {
		return 0, 0, nil, ErrBadVersion
	}
	msgType = src[3]
	count32 := binary.BigEndian.Uint32(src[4:8])
	body = src[FrameHeaderSize:]
	var recSize int
	switch msgType {
	case MsgSamples:
		recSize = SampleWireSize
	case MsgRecords:
		recSize = RecordWireSize
	case MsgHello:
		if count32 > MaxHelloLen {
			return 0, 0, nil, fmt.Errorf("%w: hello name %d bytes, max %d", ErrOversizedFrame, count32, MaxHelloLen)
		}
		if int(count32) > len(body) {
			return 0, 0, nil, fmt.Errorf("%w: hello needs %d body bytes, have %d",
				ErrTruncatedFrame, count32, len(body))
		}
		return msgType, int(count32), body, nil
	default:
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrBadMessageType, msgType)
	}
	// Bound count against the buffer BEFORE multiplying: count is untrusted
	// wire data, and count*recSize could overflow int on 32-bit builds,
	// turning the truncation check into a makeslice panic.
	if uint64(count32) > uint64(len(body)/recSize) {
		return 0, 0, nil, fmt.Errorf("%w: %d records need %d body bytes, have %d",
			ErrTruncatedFrame, count32, uint64(count32)*uint64(recSize), len(body))
	}
	return msgType, int(count32), body, nil
}

// decodeSample decodes one sample from the first SampleWireSize bytes of
// rec; the caller has checked that many are there.
func decodeSample(rec []byte) Sample {
	_ = rec[SampleWireSize-1]
	return Sample{
		Key:  DecodeKey(rec),
		Est:  time.Duration(int64(binary.BigEndian.Uint64(rec[KeyWireSize : KeyWireSize+8]))),
		True: time.Duration(int64(binary.BigEndian.Uint64(rec[KeyWireSize+8 : KeyWireSize+16]))),
	}
}
