package queryapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// viaJSON carries a table through the JSON rendering as a reader of rlird's
// plain GET /snapshot does: marshal, unmarshal, Check, Aggs.
func viaJSON(aggs []collector.FlowAgg, samples, records uint64) ([]collector.FlowAgg, uint64, uint64, error) {
	data, err := json.Marshal(SnapshotOf(aggs, samples, records))
	if err != nil {
		return nil, 0, 0, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, 0, 0, err
	}
	if err := s.Check(); err != nil {
		return nil, 0, 0, err
	}
	return s.Aggs(), s.Samples, s.Records, nil
}

// viaBinary carries a table through the binary rendering.
func viaBinary(aggs []collector.FlowAgg, samples, records uint64) ([]collector.FlowAgg, uint64, uint64, error) {
	return DecodeSnapshot(AppendSnapshot(nil, aggs, samples, records))
}

// snapshotCase is one table the codec must carry exactly. finite is false
// when the table holds a value JSON has no literal for (±Inf), which only
// the binary rendering is required to carry.
type snapshotCase struct {
	name   string
	aggs   []collector.FlowAgg
	finite bool
}

// snapshotCases is the exactness corpus: ten random collector runs plus
// the edges of every field type the wire carries.
func snapshotCases(t testing.TB) []snapshotCase {
	t.Helper()
	var cases []snapshotCase
	for seed := int64(1); seed <= 10; seed++ {
		cases = append(cases, snapshotCase{fmt.Sprintf("seed-%d", seed), buildSnapshot(t, seed), true})
	}

	empty := collector.New(collector.Config{Shards: 2})
	empty.Close()
	cases = append(cases, snapshotCase{"empty-table", empty.Snapshot(), true})

	recOnly := collector.New(collector.Config{Shards: 2})
	for i := 0; i < 5; i++ {
		recOnly.IngestRecords([]netflow.Record{{
			Key:     packet.FlowKey{Src: packet.Addr(0x0a000001 + i), Dst: 0x0a0000ff, SrcPort: uint16(1000 + i), DstPort: 443, Proto: packet.ProtoUDP},
			Packets: uint64(i + 1), Bytes: uint64(1500 * (i + 1)),
			First: simtime.Time(10 * i), Last: simtime.Time(10*i + 7),
		}})
	}
	recOnly.Close()
	cases = append(cases, snapshotCase{"record-only-flows", recOnly.Snapshot(), true})

	// A dense sketch whose window spans every structural bucket: 1 ns lands
	// in bucket 0, a value past 2^64 in the last one, and seven octaves
	// between them make nine buckets, one more than the sparse form holds —
	// the widest window on the fewest bytes the binary rendering carries.
	var widest collector.FlowAgg
	widest.Key = packet.FlowKey{Src: 1, Dst: 2, Proto: packet.ProtoTCP}
	widest.Sketch.Add(1)
	for o := 1; o <= 7; o++ {
		widest.Sketch.Add(math.Ldexp(1, 8*o))
	}
	widest.Sketch.Add(1e300)
	if widest.Sketch.Buckets() != stats.SketchMaxBuckets {
		t.Fatalf("widest sketch holds %d buckets, want %d", widest.Sketch.Buckets(), stats.SketchMaxBuckets)
	}
	cases = append(cases, snapshotCase{"sketch-at-max-buckets", []collector.FlowAgg{widest}, true})

	// A window of 599 counters, every other one empty: a dense sketch's
	// empty buckets travel inside its window.
	var gappy collector.FlowAgg
	gappy.Key = packet.FlowKey{Src: 5, Dst: 6, Proto: packet.ProtoUDP}
	st := stats.SketchState{Count: 300, Base: 100, Buckets: make([]uint64, 599)}
	for i := 0; i < 599; i += 2 {
		st.Buckets[i] = uint64(1 + i)
	}
	gappy.Sketch.SetState(st)
	cases = append(cases, snapshotCase{"sketch-of-300-gaps", []collector.FlowAgg{widest, gappy}, true})

	// Two widest windows in one body, and a table of rows whose nine
	// samples, one an octave, make 257-counter windows: rows with far more
	// window than samples, each of which must still decode.
	widest2 := widest
	widest2.Key.Src, widest2.Sketch = 9, widest.Sketch.Clone()
	cases = append(cases, snapshotCase{"two-widest-sketches", []collector.FlowAgg{widest, widest2}, true})
	octaves := make([]collector.FlowAgg, 300)
	for i := range octaves {
		octaves[i].Key = packet.FlowKey{Src: packet.Addr(100 + i), Dst: 7, Proto: packet.ProtoTCP}
		for o := 0; o <= 8; o++ {
			octaves[i].Sketch.Add(math.Ldexp(1, o))
		}
		octaves[i].Est.Add(float64(i))
	}
	if octaves[0].Sketch.Buckets() != 257 {
		t.Fatalf("nine-octave sketch holds %d counters, want 257", octaves[0].Sketch.Buckets())
	}
	cases = append(cases, snapshotCase{"nine-octave-sketches", octaves, true})

	negZero, subnormal := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	cases = append(cases, snapshotCase{"negative-zero-and-subnormal", []collector.FlowAgg{{
		Key:    packet.FlowKey{Src: 3},
		Est:    stats.WelfordFromState(stats.WelfordState{N: 2, Mean: negZero, M2: subnormal}),
		True:   stats.WelfordFromState(stats.WelfordState{N: 2, Mean: -subnormal, M2: negZero}),
		Sketch: stats.SketchFromState(stats.SketchState{Count: 2, Zero: 2, Min: negZero, Max: subnormal}),
	}}, true})

	cases = append(cases, snapshotCase{"infinities", []collector.FlowAgg{{
		Key:    packet.FlowKey{Src: 4},
		Est:    stats.WelfordFromState(stats.WelfordState{N: 1, Mean: math.Inf(1), M2: math.Inf(-1)}),
		True:   stats.WelfordFromState(stats.WelfordState{N: 1, Mean: math.Inf(-1), M2: math.MaxFloat64}),
		Sketch: stats.SketchFromState(stats.SketchState{Count: 1, Base: 7, Buckets: []uint64{1}, Min: math.Inf(-1), Max: math.Inf(1)}),
	}}, false})

	cases = append(cases, snapshotCase{"integer-extremes", []collector.FlowAgg{{
		Key:     packet.FlowKey{Src: math.MaxUint32, Dst: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16, Proto: 255},
		Est:     stats.WelfordFromState(stats.WelfordState{N: math.MaxInt64}),
		True:    stats.WelfordFromState(stats.WelfordState{N: math.MinInt64}),
		Sketch:  stats.SketchFromState(stats.SketchState{Zero: math.MaxUint64, Count: math.MaxUint64, Base: stats.SketchMaxBuckets - 1, Buckets: []uint64{math.MaxUint64}}),
		Packets: math.MaxUint64, Bytes: math.MaxUint64,
		First: math.MinInt64, Last: math.MaxInt64,
	}}, true})
	return cases
}

// TestSnapshotRoundTripExact is the fleet wire contract, on both
// renderings: a collector snapshot packed, shipped and unpacked is
// bit-identical to the original — including the unexported Welford and
// sketch internals, via their State round-trips — and the two renderings
// agree with each other. The binary rendering is total over
// float64; JSON refuses ±Inf, which is pinned rather than papered over.
func TestSnapshotRoundTripExact(t *testing.T) {
	for _, c := range snapshotCases(t) {
		t.Run(c.name, func(t *testing.T) {
			bin, samples, records, err := viaBinary(c.aggs, 123, 45)
			if err != nil {
				t.Fatalf("binary: %v", err)
			}
			if samples != 123 || records != 45 {
				t.Fatalf("binary totals lost: %d/%d", samples, records)
			}
			if !reflect.DeepEqual(bin, c.aggs) {
				t.Fatalf("binary round-trip diverged (%d flows)", len(c.aggs))
			}

			js, samples, records, err := viaJSON(c.aggs, 123, 45)
			if !c.finite {
				var unsupported *json.UnsupportedValueError
				if !errors.As(err, &unsupported) {
					t.Fatalf("JSON rendering of a non-finite state: err = %v, want UnsupportedValueError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			if samples != 123 || records != 45 {
				t.Fatalf("JSON totals lost: %d/%d", samples, records)
			}
			if !reflect.DeepEqual(js, c.aggs) {
				t.Fatalf("JSON round-trip diverged (%d flows)", len(c.aggs))
			}
			if !reflect.DeepEqual(js, bin) {
				t.Fatal("the two renderings decode to different tables")
			}
		})
	}
}

// TestDecodeCarvesEverySketchFromTheSlab pins the decoder's storage bound
// on every case of the corpus, the widest windows on the fewest bytes
// included: a fresh table's decode makes its rows, its slab and its bucket
// scratch and nothing else, so every sketch fits the slab the body's bytes
// size.
func TestDecodeCarvesEverySketchFromTheSlab(t *testing.T) {
	for _, c := range snapshotCases(t) {
		body := AppendSnapshot(nil, c.aggs, 1, 2)
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			var table SnapshotTable
			err = table.Decode(body)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > 3 {
			t.Fatalf("%s: a fresh decode allocated %.0f times, want at most 3 (rows, slab, scratch)", c.name, allocs)
		}
	}
}

// TestSnapshotMergeMatchesDirectMerge pins that decoded per-instance
// snapshots merge exactly like the in-process aggregates they came from,
// whichever rendering each instance answered in.
func TestSnapshotMergeMatchesDirectMerge(t *testing.T) {
	a := buildSnapshot(t, 3)
	b := buildSnapshot(t, 4)
	want := collector.Merge(a, b)

	type rendering func([]collector.FlowAgg, uint64, uint64) ([]collector.FlowAgg, uint64, uint64, error)
	through := func(r rendering, aggs []collector.FlowAgg) []collector.FlowAgg {
		out, _, _, err := r(aggs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, pair := range [][2]rendering{{viaJSON, viaJSON}, {viaBinary, viaBinary}, {viaBinary, viaJSON}} {
		got := collector.Merge(through(pair[0], a), through(pair[1], b))
		if !reflect.DeepEqual(got, want) {
			t.Fatal("merge through the wire diverged from direct merge")
		}
	}
}

// TestDecodeSnapshotRejectsDamage pins that the binary decoder is total:
// every strict prefix of a valid body, a flipped magic or version, trailing
// bytes and lying counts are all errors — never a panic, never a partial
// table.
func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	aggs := buildSnapshot(t, 3)
	valid := AppendSnapshot(nil, aggs, 9, 1)
	if got, _, _, err := DecodeSnapshot(valid); err != nil || !reflect.DeepEqual(got, aggs) {
		t.Fatalf("valid body rejected: %v", err)
	}
	mustFail := func(what string, body []byte, want error) error {
		t.Helper()
		got, samples, records, err := DecodeSnapshot(body)
		if err == nil {
			t.Fatalf("%s: accepted", what)
		}
		if got != nil || samples != 0 || records != 0 {
			t.Fatalf("%s: partial result beside error %v", what, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", what, err, want)
		}
		return err
	}

	for cut := 0; cut < len(valid); cut++ {
		mustFail(fmt.Sprintf("truncated at %d of %d", cut, len(valid)), valid[:cut], ErrSnapshotTruncated)
	}
	mustFail("trailing byte", append(append([]byte(nil), valid...), 0), ErrSnapshotCorrupt)

	for i := 0; i < 4; i++ {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x40
		mustFail(fmt.Sprintf("magic byte %d flipped", i), bad, ErrSnapshotMagic)
	}
	for _, v := range []byte{0, 1, 2, 3, SnapshotVersion + 1, 255} {
		bad := append([]byte(nil), valid...)
		bad[4] = v
		err := mustFail(fmt.Sprintf("version %d", v), bad, nil)
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d from peer", v)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("speaks version %d", SnapshotVersion)) {
			t.Fatalf("version error must name both versions, got: %v", err)
		}
	}

	// Lying counts, on a hand-built one-flow body whose offsets are known:
	// header 5, totals 2, flow count 1, then the row.
	one := AppendSnapshot(nil, []collector.FlowAgg{{Key: packet.FlowKey{Src: 1}}}, 0, 0)
	if len(one) != snapshotHeaderSize+3+snapshotMinFlowSize {
		t.Fatalf("an all-zero flow row is %d bytes, snapshotMinFlowSize says %d", len(one)-snapshotHeaderSize-3, snapshotMinFlowSize)
	}
	flowCount := snapshotHeaderSize + 2
	bad := append([]byte(nil), one...)
	bad[flowCount] = 2
	mustFail("flow count beyond the body", bad, ErrSnapshotTruncated)
	huge := append(append([]byte(nil), one[:flowCount]...), binary.AppendUvarint(nil, math.MaxUint64)...)
	mustFail("flow count 2^64-1", huge, ErrSnapshotTruncated)

	for _, c := range corruptBuckets {
		mustFail(c.what, oneFlowWithBuckets(c.buckets), c.want)
	}
	for _, b := range validBuckets {
		if _, _, _, err := DecodeSnapshot(oneFlowWithBuckets(b)); err != nil {
			t.Fatalf("the hand-built valid buckets %v are rejected: %v", b, err)
		}
	}
}

// oneFlowWithBuckets is a one-flow body, all its fields zero, whose sketch
// carries buckets as its encoded form word and buckets.
func oneFlowWithBuckets(buckets []byte) []byte {
	body := AppendSnapshot(nil, []collector.FlowAgg{{Key: packet.FlowKey{Src: 1}}}, 0, 0)
	at := len(body) - 4 - 1 // the form word of 0 before the four NetFlow varints
	return append(append(append([]byte(nil), body[:at]...), buckets...), body[at+1:]...)
}

// uv is a uvarint's bytes.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// cat joins byte strings.
func cat(parts ...[]byte) []byte { return slices.Concat(parts...) }

// ones is n counters of 1.
func ones(n int) []byte { return bytes.Repeat([]byte{1}, n) }

// validBuckets are a sparse sketch of buckets 5, 6 and 10, and a dense one
// of a ten-counter window from bucket 5 with a hole in it.
var validBuckets = [][]byte{
	{3 << 1, 5, 1, 0, 2, 3, 4},
	cat([]byte{10<<1 | 1, 5}, ones(4), []byte{0}, ones(5)),
}

// corruptBuckets are the ways a sketch's buckets can lie, each one a
// corruption and not a truncation: the decoder refuses every one. (A sparse
// sketch's buckets cannot come out of order or overlap: each gap is
// unsigned.)
var corruptBuckets = []struct {
	what    string
	buckets []byte
	want    error
}{
	{"a dense sketch of no buckets", []byte{1}, ErrSnapshotCorrupt},
	{"a sparse bucket holding no count", []byte{1 << 1, 5, 0}, ErrSnapshotCorrupt},
	{"a sparse bucket past the last", cat([]byte{1 << 1}, uv(stats.SketchMaxBuckets), []byte{1}), ErrSnapshotCorrupt},
	{"a second sparse bucket past the last", cat([]byte{2 << 1}, uv(stats.SketchMaxBuckets-1), []byte{1, 0, 1}), ErrSnapshotCorrupt},
	{"a gap of 2^64-1", cat([]byte{2 << 1, 3, 1}, uv(math.MaxUint64), []byte{1}), ErrSnapshotCorrupt},
	{"nine sparse buckets", cat([]byte{9 << 1}, bytes.Repeat([]byte{0, 1}, 9)), ErrSnapshotCorrupt},
	{"a sparse count no bin holds", cat([]byte{1 << 1, 5}, uv(1<<53)), ErrSnapshotCorrupt},
	{"a dense window of eight buckets", cat([]byte{8<<1 | 1, 5}, ones(8)), ErrSnapshotCorrupt},
	{"a dense window starting empty", cat([]byte{10<<1 | 1, 5, 0}, ones(9)), ErrSnapshotCorrupt},
	{"a dense window ending empty", cat([]byte{10<<1 | 1, 5}, ones(9), []byte{0}), ErrSnapshotCorrupt},
	{"a dense window past the last bucket", cat([]byte{10<<1 | 1}, uv(stats.SketchMaxBuckets-9), ones(10)), ErrSnapshotCorrupt},
	{"a dense window based past the last bucket", cat([]byte{10<<1 | 1}, uv(stats.SketchMaxBuckets), ones(10)), ErrSnapshotCorrupt},
	{"more sparse buckets than bytes", cat(uv(100<<1), []byte{1, 1}), ErrSnapshotTruncated},
	{"a window wider than the bytes", cat(uv(100<<1|1), []byte{5, 1}), ErrSnapshotTruncated},
}

// readFixture returns a file of testdata/: the bodies of peers this binary
// no longer speaks to, captured from the last commit that produced them.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotRejectsV3Peer pins the run-encoded sketch's version bump on
// real version-3 bodies (two flows, one with a 353-counter window): the
// binary rendering is refused with an error naming both versions — a v3
// window base read as a v4 form word would misplace every bucket. The
// JSON rows did not change, but the version gate is the schema's, so that
// rendering is refused too.
func TestSnapshotRejectsV3Peer(t *testing.T) {
	wantNamed := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version 3 from peer") ||
			!strings.Contains(err.Error(), fmt.Sprintf("speaks version %d", SnapshotVersion)) {
			t.Fatalf("version error must name both versions, got: %v", err)
		}
	}
	aggs, samples, records, err := DecodeSnapshot(readFixture(t, "snapshot_v3.bin"))
	if aggs != nil || samples != 0 || records != 0 {
		t.Fatalf("partial result beside error %v", err)
	}
	wantNamed(err)

	var s Snapshot
	if err := json.Unmarshal(readFixture(t, "snapshot_v3.json"), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 2 {
		t.Fatalf("fixture decodes to %d flows, want 2", len(s.Flows))
	}
	wantNamed(s.Check())
	// Read as this version's JSON, the rows are whole: only the gate refuses.
	s.Version = SnapshotVersion
	if got := s.Aggs(); got[0].Sketch.Count() != 12 || got[0].Sketch.Buckets() != 353 {
		t.Fatalf("v3 JSON row's sketch holds %d samples in %d words, want 12 in a 353-counter window",
			got[0].Sketch.Count(), got[0].Sketch.Buckets())
	}
}

// TestSnapshotRejectsV2Peer pins the version bump on real version-2 bodies
// (two flows, with the per-flow histogram this version dropped): both
// renderings are refused with an error naming both versions, exactly as a
// version-1 peer's are — a v2 row read as v3 would put histogram bytes where
// the sketch is expected.
func TestSnapshotRejectsV2Peer(t *testing.T) {
	wantNamed := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version 2 from peer") ||
			!strings.Contains(err.Error(), fmt.Sprintf("speaks version %d", SnapshotVersion)) {
			t.Fatalf("version error must name both versions, got: %v", err)
		}
	}
	aggs, samples, records, err := DecodeSnapshot(readFixture(t, "snapshot_v2.bin"))
	if aggs != nil || samples != 0 || records != 0 {
		t.Fatalf("partial result beside error %v", err)
	}
	wantNamed(err)

	var s Snapshot
	if err := json.Unmarshal(readFixture(t, "snapshot_v2.json"), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 2 {
		t.Fatalf("fixture decodes to %d flows, want 2", len(s.Flows))
	}
	wantNamed(s.Check())
}

// TestSnapshotVersionCheck pins the schema gate: current snapshots pass,
// and any other version — older, newer, or the implicit 0 of a
// pre-versioning peer — fails with an error naming both versions.
func TestSnapshotVersionCheck(t *testing.T) {
	if err := SnapshotOf(nil, 0, 0).Check(); err != nil {
		t.Fatalf("current-version snapshot rejected: %v", err)
	}
	// A version-1 peer's body: no version field existed, so it decodes as 0.
	var stale Snapshot
	if err := json.Unmarshal([]byte(`{"samples":1,"records":0,"flows":[]}`), &stale); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{stale.Version, 1, 2, 3, SnapshotVersion + 1} {
		s := Snapshot{Version: v}
		err := s.Check()
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(v)) ||
			!strings.Contains(err.Error(), fmt.Sprint(SnapshotVersion)) {
			t.Fatalf("version error must name both versions, got: %v", err)
		}
	}
}
