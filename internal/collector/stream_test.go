package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

func testSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Key: packet.FlowKey{
				Src: packet.Addr(0x0a000001 + i), Dst: packet.Addr(0x0a000100 + i),
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6,
			},
			Est:  time.Duration(i+1) * time.Microsecond,
			True: time.Duration(i+2) * time.Microsecond,
		}
	}
	return out
}

func TestHelloFrameRoundTrip(t *testing.T) {
	buf := AppendHello(nil, "tor3.0")
	f, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if f.Type != MsgHello || f.Hello != "tor3.0" {
		t.Fatalf("got type=%d hello=%q", f.Type, f.Hello)
	}
}

func TestHelloFrameTruncatesLongName(t *testing.T) {
	long := strings.Repeat("x", MaxHelloLen+40)
	buf := AppendHello(nil, long)
	f, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(f.Hello) != MaxHelloLen {
		t.Fatalf("hello length %d, want truncation to %d", len(f.Hello), MaxHelloLen)
	}
}

// TestHelloTruncatesAtRuneBoundary pins names so a multi-byte rune
// straddles the MaxHelloLen cut: the wire must carry valid UTF-8 ending on
// a whole rune, and HelloName must report exactly what was sent.
func TestHelloTruncatesAtRuneBoundary(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		// 255 % 3 == 0, so pure 3-byte runes would cut cleanly; the one
		// ASCII byte up front forces the cut to straddle a rune.
		{"ascii prefix then 3-byte runes", "x" + strings.Repeat("日", 100)},
		{"2-byte runes", strings.Repeat("é", 200)},
		{"4-byte runes", strings.Repeat("\U0001F600", 80)},
		{"emoji with ascii", strings.Repeat("a", MaxHelloLen-2) + "\U0001F600"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := AppendHello(nil, tc.in)
			f, _, err := DecodeFrame(buf)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if !utf8.ValidString(f.Hello) {
				t.Errorf("wire carried a torn rune: %q", f.Hello)
			}
			if len(f.Hello) > MaxHelloLen {
				t.Errorf("hello length %d exceeds MaxHelloLen", len(f.Hello))
			}
			if !strings.HasPrefix(tc.in, f.Hello) {
				t.Errorf("truncation rewrote the name: %q not a prefix of input", f.Hello)
			}
			if want := HelloName(tc.in); f.Hello != want {
				t.Errorf("HelloName = %q but wire carried %q", want, f.Hello)
			}
			// The cut must not cost more than one rune's worth of bytes.
			if len(tc.in) > MaxHelloLen && len(f.Hello) < MaxHelloLen-utf8.UTFMax {
				t.Errorf("over-truncated: %d bytes, want within %d of %d",
					len(f.Hello), utf8.UTFMax, MaxHelloLen)
			}
		})
	}
	if got := HelloName("short"); got != "short" {
		t.Errorf("HelloName(short) = %q, want unchanged", got)
	}
}

// TestFrameReaderStream decodes a heterogeneous frame sequence from one
// byte stream, the service's ingest path.
func TestFrameReaderStream(t *testing.T) {
	samples := testSamples(5)
	recs := []netflow.Record{{
		Key:     samples[0].Key,
		First:   simtime.FromDuration(time.Millisecond),
		Last:    simtime.FromDuration(2 * time.Millisecond),
		Packets: 7, Bytes: 7000,
	}}
	var wire []byte
	wire = AppendHello(wire, "core0.1")
	wire = AppendSamples(wire, samples)
	wire = AppendRecords(wire, recs)
	wire = AppendSamples(wire, nil) // empty frame is valid

	fr := NewFrameReader(bytes.NewReader(wire), 0)
	f, err := fr.Next()
	if err != nil || f.Type != MsgHello || f.Hello != "core0.1" {
		t.Fatalf("frame 1: %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || len(f.Samples) != 5 {
		t.Fatalf("frame 2: %+v, %v", f, err)
	}
	if f.Samples[3] != samples[3] {
		t.Fatalf("sample round trip: got %+v want %+v", f.Samples[3], samples[3])
	}
	f, err = fr.Next()
	if err != nil || len(f.Records) != 1 || f.Records[0] != recs[0] {
		t.Fatalf("frame 3: %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != MsgSamples || len(f.Samples) != 0 {
		t.Fatalf("frame 4: %+v, %v", f, err)
	}
	if _, err = fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestFrameReaderRaw pins the undecoded face of the reader, the one the
// service's read loop uses: NextRaw yields the same frames Next decodes,
// Type/Count/Delays read them in place, and a raw samples frame handed to
// IngestFrame lands in the collector exactly as its decoded samples would —
// also when the reader's buffer is overwritten by the next frame right after.
func TestFrameReaderRaw(t *testing.T) {
	a, b := genStream(31, 40, 700), genStream(32, 40, 300)
	var wire []byte
	wire = AppendHello(wire, "tor3")
	wire = AppendSamples(wire, a)
	wire = AppendSamples(wire, b) // shorter: reuses the front of the reader's buffer
	wire = AppendSamples(wire, nil)

	c := New(Config{Shards: 2})
	fr := NewFrameReader(bytes.NewReader(wire), 0)
	wantFrames := []struct {
		typ     byte
		samples []Sample
	}{{MsgHello, nil}, {MsgSamples, a}, {MsgSamples, b}, {MsgSamples, nil}}
	for i, want := range wantFrames {
		raw, err := fr.NextRaw()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if raw.Type() != want.typ {
			t.Fatalf("frame %d: type %d, want %d", i, raw.Type(), want.typ)
		}
		if want.typ != MsgSamples {
			if f, _, err := DecodeFrame(raw); err != nil || f.Hello != "tor3" || raw.Count() != len("tor3") {
				t.Fatalf("frame %d: hello %+v, count %d, err %v", i, f, raw.Count(), err)
			}
			continue
		}
		if raw.Count() != len(want.samples) {
			t.Fatalf("frame %d: count %d, want %d", i, raw.Count(), len(want.samples))
		}
		for j, s := range want.samples {
			if est, truth := raw.Delays(j); est != s.Est || truth != s.True {
				t.Fatalf("frame %d sample %d: delays (%v, %v), want (%v, %v)", i, j, est, truth, s.Est, s.True)
			}
		}
		if n, err := c.IngestFrame(raw); err != nil || n != len(raw) {
			t.Fatalf("frame %d: IngestFrame consumed %d of %d bytes, err %v", i, n, len(raw), err)
		}
	}
	if _, err := fr.NextRaw(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	got := c.Snapshot()
	c.Close()
	if want := sequentialAggregate(append(a, b...), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("raw-frame ingest diverges from native aggregation of the same samples")
	}

	// A frame that fails validation ingests nothing.
	c = New(Config{Shards: 2})
	defer c.Close()
	full := AppendSamples(nil, a)
	if n, err := c.IngestFrame(full[:len(full)-1]); !errors.Is(err, ErrTruncatedFrame) || n != 0 {
		t.Fatalf("truncated frame: consumed %d, err %v", n, err)
	}
	if c.SamplesIngested() != 0 || c.Flows() != 0 {
		t.Fatalf("a rejected frame left %d samples, %d flows behind", c.SamplesIngested(), c.Flows())
	}
}

// TestFrameReaderTruncated covers both truncation sites: inside a header
// and inside a body.
func TestFrameReaderTruncated(t *testing.T) {
	full := AppendSamples(nil, testSamples(3))
	for _, cut := range []int{1, FrameHeaderSize - 1, FrameHeaderSize + 1, len(full) - 1} {
		fr := NewFrameReader(bytes.NewReader(full[:cut]), 0)
		if _, err := fr.Next(); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("cut at %d: err %v, want ErrTruncatedFrame", cut, err)
		}
	}
}

// errReader fails with a fixed error after serving its prefix.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameReaderPreservesReadError pins that the underlying transport
// error stays in the chain alongside ErrTruncatedFrame — a consumer must
// be able to tell a force-closed socket from wire corruption.
func TestFrameReaderPreservesReadError(t *testing.T) {
	sentinel := errors.New("socket force-closed")
	full := AppendSamples(nil, testSamples(2))
	for _, cut := range []int{3, FrameHeaderSize + 5} {
		fr := NewFrameReader(&errReader{data: full[:cut], err: sentinel}, 0)
		_, err := fr.Next()
		if !errors.Is(err, ErrTruncatedFrame) || !errors.Is(err, sentinel) {
			t.Errorf("cut at %d: err %v must wrap both ErrTruncatedFrame and the read error", cut, err)
		}
	}
}

func TestFrameReaderUnknownType(t *testing.T) {
	buf := AppendSamples(nil, nil)
	buf[3] = 99
	fr := NewFrameReader(bytes.NewReader(buf), 0)
	if _, err := fr.Next(); !errors.Is(err, ErrBadMessageType) {
		t.Fatalf("err %v, want ErrBadMessageType", err)
	}
	// The buffer-oriented decoder must agree.
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrBadMessageType) {
		t.Fatalf("DecodeFrame err %v, want ErrBadMessageType", err)
	}
}

// TestFrameReaderOversized proves a hostile count fails before the reader
// commits memory: the stream carries only a header, but the count claims
// a body far past the bound.
func TestFrameReaderOversized(t *testing.T) {
	hdr := AppendSamples(nil, nil)[:FrameHeaderSize]
	binary.BigEndian.PutUint32(hdr[4:8], uint32(DefaultMaxFrameRecords+1))
	fr := NewFrameReader(bytes.NewReader(hdr), 0)
	if _, err := fr.Next(); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("err %v, want ErrOversizedFrame", err)
	}

	// A tighter bound applies to records frames too.
	recFrame := AppendRecords(nil, make([]netflow.Record, 9))
	fr = NewFrameReader(bytes.NewReader(recFrame), 8)
	if _, err := fr.Next(); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("records err %v, want ErrOversizedFrame", err)
	}

	// Oversized hello: a count past MaxHelloLen is rejected by both paths.
	hello := AppendHello(nil, "x")
	binary.BigEndian.PutUint32(hello[4:8], MaxHelloLen+1)
	fr = NewFrameReader(bytes.NewReader(hello), 0)
	if _, err := fr.Next(); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("hello err %v, want ErrOversizedFrame", err)
	}
	if _, _, err := DecodeFrame(hello); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("DecodeFrame hello err %v, want ErrOversizedFrame", err)
	}
}

func TestFrameReaderBadMagicAndVersion(t *testing.T) {
	good := AppendSamples(nil, testSamples(1))

	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if _, err := NewFrameReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrBadFrameMagic) {
		t.Fatalf("magic err %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = frameVersion + 1
	if _, err := NewFrameReader(bytes.NewReader(bad), 0).Next(); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version err %v", err)
	}
}
