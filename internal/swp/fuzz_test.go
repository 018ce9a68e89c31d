package swp_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/netmeasure/rlir/internal/swp"
)

// nopCloser gives StreamConn a write half for a read-only fuzz stream.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// FuzzDecodeSegment holds the segment parser — the first decoder a reliable
// export connection's bytes meet — to its contract on arbitrary input,
// seeded with both segment types, a back-to-back stream and each corruption
// TestSegmentCodec names:
//
//   - DecodeSegment never panics and returns a segment or an error, never
//     both; an accepted segment consumed between a header and the whole
//     input, carries at most MaxSegmentPayload bytes (none on an ack), owns
//     its payload, and re-encodes to exactly the bytes consumed;
//   - StreamConn.Recv, the streaming face of the same codec, accepts the
//     same segment sequence from the same bytes.
func FuzzDecodeSegment(f *testing.F) {
	data := swp.AppendSegment(nil, swp.Segment{Type: swp.SegData, Seq: 7, Ack: 3, Sack: 0b1011, Payload: []byte("payload")})
	ack := swp.AppendSegment(nil, swp.Segment{Type: swp.SegAck, Ack: 0xFFFFFFFE, Sack: 1 << 31})
	empty := swp.AppendSegment(nil, swp.Segment{Type: swp.SegData, Seq: 0xFFFFFFFF})
	corrupt := func(at int, v byte) []byte {
		c := append([]byte(nil), data...)
		c[at] = v
		return c
	}
	for _, seed := range [][]byte{
		data, ack, empty,
		append(append(append([]byte(nil), data...), ack...), data...),
		corrupt(0, 'X'),        // magic
		corrupt(2, 99),         // version
		corrupt(3, 9),          // type
		corrupt(3, swp.SegAck), // ack with payload
		corrupt(16, 0xFF),      // length past MaxSegmentPayload
		data[:swp.SegmentHeaderSize-1],
		data[:len(data)-1],
		{},
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		pristine := append([]byte(nil), in...)
		var want []swp.Segment
		for rest := in; ; {
			seg, n, err := swp.DecodeSegment(rest)
			if err != nil {
				if n != 0 || !reflect.DeepEqual(seg, swp.Segment{}) {
					t.Fatalf("partial result (%d bytes, %+v) beside error %v", n, seg, err)
				}
				break
			}
			if n < swp.SegmentHeaderSize || n > len(rest) {
				t.Fatalf("consumed %d bytes of %d", n, len(rest))
			}
			if len(seg.Payload) > swp.MaxSegmentPayload || (seg.Type == swp.SegAck && seg.Payload != nil) {
				t.Fatalf("accepted a type-%d segment with %d payload bytes", seg.Type, len(seg.Payload))
			}
			if re := swp.AppendSegment(nil, seg); !bytes.Equal(re, rest[:n]) {
				t.Fatalf("re-encoding %d consumed bytes produced %d different bytes", n, len(re))
			}
			want = append(want, seg)
			rest = rest[n:]
		}
		// A decoded payload is the segment's own: overwriting the input
		// (a reused read buffer) must not reach it.
		for i := range in {
			in[i] ^= 0xFF
		}
		off := 0
		for _, seg := range want {
			if p := pristine[off+swp.SegmentHeaderSize:][:len(seg.Payload)]; !bytes.Equal(seg.Payload, p) {
				t.Fatal("decoded payload aliases the input buffer")
			}
			off += swp.SegmentHeaderSize + len(seg.Payload)
		}

		conn := swp.NewStreamConnPair(bytes.NewReader(pristine), nopCloser{io.Discard})
		for i := 0; ; i++ {
			seg, err := conn.Recv()
			if err != nil {
				if i != len(want) {
					t.Fatalf("stream reader stopped after %d segments with %v, buffer decoder accepted %d", i, err, len(want))
				}
				break
			}
			if i >= len(want) || !reflect.DeepEqual(seg, want[i]) {
				t.Fatalf("segment %d diverged between streaming and buffer decoders", i)
			}
		}
	})
}
