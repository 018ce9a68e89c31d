package queryapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// FlowState is one flow aggregate's complete internal state, the /snapshot
// row of the JSON rendering. Unlike FlowJSON it loses nothing: the Welford
// and sketch accumulators travel as their exact field values, and
// the 5-tuple travels numerically, so Snapshot.Aggs rebuilds
// collector.FlowAgg values bit-identical to the instance's own.
type FlowState struct {
	Src     uint32 `json:"src"`
	Dst     uint32 `json:"dst"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	Proto   uint8  `json:"proto"`

	Est    stats.WelfordState `json:"est"`
	True   stats.WelfordState `json:"true"`
	Sketch stats.SketchState  `json:"sketch"`

	Packets uint64 `json:"packets,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
	FirstNs int64  `json:"first_ns,omitempty"`
	LastNs  int64  `json:"last_ns,omitempty"`
}

// SnapshotVersion is the current /snapshot schema version, shared by both
// renderings. Version 2 added the per-flow quantile sketch state; version 3
// dropped the per-flow log2 histogram, leaving the sketch the row's only
// distribution; version 4 sends the binary rendering's sketch in the form
// it is held in — a sparse sketch as its non-empty buckets, a dense one as
// its counter window — instead of always as a window (the JSON rendering's
// rows did not change). Rows of different versions do not line
// up, and reading one as another would merge garbage or silently empty
// tiers — so Check rejects any version mismatch outright instead.
const SnapshotVersion = 4

// Snapshot is the /snapshot response in its JSON rendering: the full flow
// table as raw state plus the instance's ingest totals, tagged with the
// schema version that produced it. It is what a plain GET /snapshot serves
// (the human/debug view) and the reference the binary rendering below is
// tested against.
type Snapshot struct {
	Version int         `json:"version"`
	Samples uint64      `json:"samples"`
	Records uint64      `json:"records"`
	Flows   []FlowState `json:"flows"`
}

// Check validates the snapshot's schema version against this binary's.
// A mismatch (including the implicit version 0 of a pre-versioning
// instance) is an error naming both versions, so a mixed-version fleet
// fails loudly at gather time rather than merging lossily.
func (s Snapshot) Check() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("queryapi: snapshot version %d from peer, this binary speaks version %d (mixed-version fleet?)", s.Version, SnapshotVersion)
	}
	return nil
}

// SnapshotOf packs a collector snapshot (and its ingest totals) for the
// JSON rendering.
func SnapshotOf(aggs []collector.FlowAgg, samples, records uint64) Snapshot {
	s := Snapshot{Version: SnapshotVersion, Samples: samples, Records: records, Flows: make([]FlowState, len(aggs))}
	for i := range aggs {
		a := &aggs[i]
		s.Flows[i] = FlowState{
			Src:     uint32(a.Key.Src),
			Dst:     uint32(a.Key.Dst),
			SrcPort: a.Key.SrcPort,
			DstPort: a.Key.DstPort,
			Proto:   uint8(a.Key.Proto),
			Est:     a.Est.State(),
			True:    a.True.State(),
			Sketch:  a.Sketch.State(),
			Packets: a.Packets,
			Bytes:   a.Bytes,
			FirstNs: int64(a.First),
			LastNs:  int64(a.Last),
		}
	}
	return s
}

// Aggs unpacks the snapshot back into collector flow aggregates, in wire
// order (instances send them sorted by flow key). An empty table unpacks to
// nil, like collector.Collector.Snapshot of an empty collector.
func (s Snapshot) Aggs() []collector.FlowAgg {
	if len(s.Flows) == 0 {
		return nil
	}
	out := make([]collector.FlowAgg, len(s.Flows))
	for i, f := range s.Flows {
		out[i] = collector.FlowAgg{
			Key: packet.FlowKey{
				Src:     packet.Addr(f.Src),
				Dst:     packet.Addr(f.Dst),
				SrcPort: f.SrcPort,
				DstPort: f.DstPort,
				Proto:   packet.Proto(f.Proto),
			},
			Est:     stats.WelfordFromState(f.Est),
			True:    stats.WelfordFromState(f.True),
			Sketch:  stats.SketchFromState(f.Sketch),
			Packets: f.Packets,
			Bytes:   f.Bytes,
			First:   simtime.Time(f.FirstNs),
			Last:    simtime.Time(f.LastNs),
		}
	}
	return out
}

// Binary rendering of a snapshot: the instance → front-end wire. An
// instance answers GET /snapshot with it when the request's Accept header
// names SnapshotContentType and labels the response with that Content-Type;
// the front-end refuses a response labelled otherwise. Same schema, same
// SnapshotVersion, second rendering:
//
//	offset size field
//	0      4    magic 0x524C5353 ("RLSS", "RLIR Snapshot State")
//	4      1    schema version (SnapshotVersion)
//	5      uv   samples ingested
//	...    uv   records ingested
//	...    uv   flow count
//	...    ...  count flow rows
//
// Flow row (snapshotMinFlowSize = 70 bytes when every varint is one byte):
//
//	key 13  collector wire layout: src 4 | dst 4 | srcPort 2 | dstPort 2 | proto 1
//	est     n sv | mean f8 | m2 f8
//	true    n sv | mean f8 | m2 f8
//	sketch  zero uv | count uv | min f8 | max f8 | form uv | buckets
//	netflow packets uv | bytes uv | first ns sv | last ns sv
//
// form is n<<1 | dense, n the words the sketch holds its buckets in
// (stats.Sketch.Buckets), dense its form (a stats.Sketch.Window or not):
//
//	sparse  n x (gap uv | count uv)    the non-empty buckets, ascending
//	dense   base uv | n x count uv     the window from bucket base
//
// A sparse bucket's gap is the number of empty buckets between it and the
// previous one (bucket -1 for the first), its count non-zero, and there are
// at most 8 of them. A dense window's first and last counters are non-zero.
// Every bucket lies below stats.SketchMaxBuckets, and the form must be the
// one the counts take in memory (stats.SketchBinsDense): every sketch has
// one encoding. Each counter a row decodes to takes at least a byte of it,
// so a body's sketches never need more storage than its bytes bound.
//
// uv is an unsigned LEB128 varint (encoding/binary's Uvarint), sv its
// zig-zag signed form, f8 the float64's IEEE-754 bits, big endian, verbatim
// — so NaN payloads, signed zeros, infinities and subnormals all cross
// unchanged, which JSON cannot promise. Fixed-width fields are big endian
// like the collector frame. Nothing may follow the last row.
const (
	// SnapshotContentType labels the binary rendering, in a request's
	// Accept header and a response's Content-Type.
	SnapshotContentType = "application/x-rlir-snapshot"

	snapshotMagic      = 0x524C5353
	snapshotHeaderSize = 5
	// snapshotMinFlowSize is the shortest possible flow row: key, two
	// Welfords (1+8+8 each), sketch (3 varints, two floats), four NetFlow
	// varints. It bounds an untrusted flow count by the bytes present before
	// anything is allocated.
	snapshotMinFlowSize = collector.KeyWireSize + 2*17 + (3 + 16) + 4
)

// Errors returned by DecodeSnapshot (a schema version mismatch is
// Snapshot.Check's error instead).
var (
	ErrSnapshotMagic     = errors.New("queryapi: binary snapshot has wrong magic")
	ErrSnapshotTruncated = errors.New("queryapi: binary snapshot truncated")
	ErrSnapshotCorrupt   = errors.New("queryapi: binary snapshot corrupt")
)

// AppendSnapshot appends the binary rendering of a collector snapshot and
// its ingest totals to dst and returns the extended slice. The sketch
// buckets are read in place (stats.Sketch.Window and Bins), so encoding
// into a buffer with room allocates nothing.
func AppendSnapshot(dst []byte, aggs []collector.FlowAgg, samples, records uint64) []byte {
	dst = appendSnapshotHeader(dst, samples, records, len(aggs))
	for i := range aggs {
		dst = appendFlowState(dst, &aggs[i])
	}
	return dst
}

// AppendSnapshotRows is AppendSnapshot over rows read in place — the rows
// collector.Collector.View holds still — rather than a copied table: rlird
// encodes its binary /snapshot straight from its shards into a reused body.
func AppendSnapshotRows(dst []byte, rows []*collector.FlowAgg, samples, records uint64) []byte {
	dst = appendSnapshotHeader(dst, samples, records, len(rows))
	for _, a := range rows {
		dst = appendFlowState(dst, a)
	}
	return dst
}

func appendSnapshotHeader(dst []byte, samples, records uint64, flows int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, snapshotMagic)
	dst = append(dst, SnapshotVersion)
	dst = binary.AppendUvarint(dst, samples)
	dst = binary.AppendUvarint(dst, records)
	return binary.AppendUvarint(dst, uint64(flows))
}

// appendFlowState appends one flow row.
func appendFlowState(dst []byte, a *collector.FlowAgg) []byte {
	dst = collector.AppendKey(dst, a.Key)
	dst = appendWelford(dst, a.Est.State())
	dst = appendWelford(dst, a.True.State())

	s := &a.Sketch
	dst = binary.AppendUvarint(dst, s.Zero())
	dst = binary.AppendUvarint(dst, s.Count())
	dst = appendFloat(dst, s.Min())
	dst = appendFloat(dst, s.Max())
	dst = appendBuckets(dst, s)

	dst = binary.AppendUvarint(dst, a.Packets)
	dst = binary.AppendUvarint(dst, a.Bytes)
	dst = binary.AppendVarint(dst, int64(a.First))
	return binary.AppendVarint(dst, int64(a.Last))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendWelford(dst []byte, w stats.WelfordState) []byte {
	dst = binary.AppendVarint(dst, w.N)
	dst = appendFloat(dst, w.Mean)
	return appendFloat(dst, w.M2)
}

// appendBuckets appends a sketch's form word and buckets, in the form the
// sketch holds them.
func appendBuckets(dst []byte, s *stats.Sketch) []byte {
	if base, win := s.Window(); win != nil {
		dst = binary.AppendUvarint(dst, uint64(len(win))<<1|1)
		dst = binary.AppendUvarint(dst, uint64(base))
		for _, c := range win {
			dst = binary.AppendUvarint(dst, c)
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(s.Buckets())<<1)
	next := 0 // the bucket after the previous one written
	for idx, c := range s.Bins {
		dst = binary.AppendUvarint(dst, uint64(idx-next))
		dst = binary.AppendUvarint(dst, c)
		next = idx + 1
	}
	return dst
}

// DecodeSnapshot decodes the binary rendering straight into collector flow
// aggregates (no intermediate FlowState table) and returns them in wire
// order with the instance's ingest totals: SnapshotTable.Decode into an
// empty table, so its contract is Decode's. An empty table decodes to nil,
// like Snapshot.Aggs, and an error comes with no table at all.
func DecodeSnapshot(src []byte) (aggs []collector.FlowAgg, samples, records uint64, err error) {
	var t SnapshotTable
	if err := t.Decode(src); err != nil {
		return nil, 0, 0, err
	}
	return t.Aggs, t.Samples, t.Records, nil
}

// SnapshotTable is a decoded binary snapshot in storage kept for the next
// decode: the rows, the slab their sketches' storage is carved from, and the
// scratch list each sketch's buckets are read into. Once that storage has grown to
// the bodies it decodes, decoding allocates nothing. The zero value is an
// empty table, ready to use.
type SnapshotTable struct {
	// Aggs are the flow rows in wire order. Their sketch windows are the
	// table's, overwritten by the next Decode.
	Aggs []collector.FlowAgg
	// Samples and Records are the instance's ingest totals.
	Samples, Records uint64

	slab []uint64
	bins []stats.SketchBin
}

// Bytes is the storage t holds for reuse, in bytes.
func (t *SnapshotTable) Bytes() int {
	return cap(t.Aggs)*int(unsafe.Sizeof(collector.FlowAgg{})) + cap(t.slab)*8 + cap(t.bins)*int(unsafe.Sizeof(stats.SketchBin{}))
}

// Decode replaces t's table with the one src encodes. src is untrusted:
// every count is bounded by the bytes present before it sizes storage, a
// version other than SnapshotVersion is Snapshot.Check's error, and a body
// that is truncated, overlong or out of bounds anywhere is an error that
// leaves t empty — no partial table, whatever t held before — with its
// storage kept for the next Decode.
func (t *SnapshotTable) Decode(src []byte) error {
	err := t.decode(src)
	if err != nil {
		t.Aggs, t.Samples, t.Records = t.Aggs[:0], 0, 0
	}
	return err
}

func (t *SnapshotTable) decode(src []byte) error {
	if len(src) < snapshotHeaderSize {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrSnapshotTruncated, len(src), snapshotHeaderSize)
	}
	if binary.BigEndian.Uint32(src) != snapshotMagic {
		return ErrSnapshotMagic
	}
	if err := (Snapshot{Version: int(src[4])}).Check(); err != nil {
		return err
	}
	r := snapshotReader{b: src[snapshotHeaderSize:]}
	t.Samples, t.Records = r.uvarint(), r.uvarint()
	count := r.uvarint()
	if r.err == nil && count > uint64(len(r.b)/snapshotMinFlowSize) {
		r.fail(fmt.Errorf("%w: %d flows need at least %d bytes each, have %d",
			ErrSnapshotTruncated, count, snapshotMinFlowSize, len(r.b)))
	}
	if r.err != nil {
		return r.err
	}
	// Every sketch's storage is carved from one slab. A stored word takes at
	// least a byte on the wire (see the row layout), so the bytes the
	// shortest rows do not account for bound all of it together — and the
	// slab by the body's size.
	t.Aggs = t.Aggs[:0]
	var slab []uint64
	if count > 0 {
		if cap(t.Aggs) < int(count) {
			t.Aggs = make([]collector.FlowAgg, count)
		}
		t.Aggs = t.Aggs[:count]
		n := len(r.b) - int(count)*snapshotMinFlowSize
		if cap(t.slab) < n {
			t.slab = make([]uint64, n)
		}
		slab = t.slab[:n]
	}
	// One scratch list for every sketch's buckets: SetBinsIn copies out of it.
	if t.bins == nil {
		t.bins = make([]stats.SketchBin, 0, stats.SketchMaxBuckets)
	}
	for i := range t.Aggs {
		a := &t.Aggs[i]
		a.Key = r.key()
		a.Est.SetState(r.welford())
		a.True.SetState(r.welford())

		s := stats.SketchState{Zero: r.uvarint(), Count: r.uvarint(), Min: r.float(), Max: r.float()}
		slab = a.Sketch.SetBinsIn(s, r.buckets(t.bins), slab)

		a.Packets, a.Bytes = r.uvarint(), r.uvarint()
		a.First, a.Last = simtime.Time(r.varint()), simtime.Time(r.varint())
		if r.err != nil {
			return r.err
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d bytes after the last of %d flows", ErrSnapshotCorrupt, len(r.b), count)
	}
	return nil
}

// snapshotReader consumes a binary snapshot body front to back. The first
// failure sticks in err and empties b, so every later read fails fast and
// the caller checks once per flow row.
type snapshotReader struct {
	b   []byte
	err error
}

func (r *snapshotReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *snapshotReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.failVarint(n)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapshotReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.failVarint(n)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// failVarint maps encoding/binary's varint failure codes: 0 is a buffer
// that ended mid-value, negative a value overflowing 64 bits.
func (r *snapshotReader) failVarint(n int) {
	if n == 0 {
		r.fail(ErrSnapshotTruncated)
	} else {
		r.fail(fmt.Errorf("%w: varint overflows 64 bits", ErrSnapshotCorrupt))
	}
}

// fixed returns the next n bytes, or nil after a failure.
func (r *snapshotReader) fixed(n int) []byte {
	if len(r.b) < n {
		r.fail(ErrSnapshotTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *snapshotReader) float() float64 {
	p := r.fixed(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(p))
}

func (r *snapshotReader) key() packet.FlowKey {
	p := r.fixed(collector.KeyWireSize)
	if p == nil {
		return packet.FlowKey{}
	}
	return collector.DecodeKey(p)
}

func (r *snapshotReader) welford() stats.WelfordState {
	return stats.WelfordState{N: r.varint(), Mean: r.float(), M2: r.float()}
}

// buckets reads a sketch's form word and buckets into bins' backing array
// as its non-empty buckets, in index order (none for an empty sketch). Every
// bucket is checked against the structural range and the form's limits
// before it is stored, so the buckets never outgrow bins; a body claiming
// the form its counts do not take is refused before the sketch is built.
func (r *snapshotReader) buckets(bins []stats.SketchBin) []stats.SketchBin {
	bins = bins[:0]
	form := r.uvarint()
	n, dense := form>>1, form&1 == 1
	if r.err != nil || form == 0 {
		return bins
	}
	if n == 0 {
		r.fail(fmt.Errorf("%w: a dense sketch of no buckets", ErrSnapshotCorrupt))
		return bins
	}
	if dense {
		bins = r.window(bins, n)
	} else {
		bins = r.sparse(bins, n)
	}
	if r.err == nil && stats.SketchBinsDense(bins) != dense {
		r.fail(fmt.Errorf("%w: a sketch of %d non-empty buckets sent in the other form", ErrSnapshotCorrupt, len(bins)))
	}
	if r.err != nil {
		return bins[:0]
	}
	return bins
}

// sparse reads n (gap, count) buckets. More than the bytes left hold (two
// each) or bins has room for are refused before any is read; more than a
// sparse sketch holds, by the form check after.
func (r *snapshotReader) sparse(bins []stats.SketchBin, n uint64) []stats.SketchBin {
	switch {
	case n > uint64(len(r.b)/2):
		r.fail(ErrSnapshotTruncated)
		return bins
	case n > uint64(cap(bins)):
		r.fail(fmt.Errorf("%w: a sparse sketch of %d buckets", ErrSnapshotCorrupt, n))
		return bins
	}
	next := uint64(0) // the bucket after the previous one
	for range n {
		gap, c := r.uvarint(), r.uvarint()
		if r.err != nil {
			return bins
		}
		if gap >= stats.SketchMaxBuckets-next || c == 0 {
			r.fail(fmt.Errorf("%w: sparse sketch bucket %d+%d holds %d", ErrSnapshotCorrupt, next, gap, c))
			return bins
		}
		next += gap
		bins = append(bins, stats.SketchBin{Index: int(next), Count: c})
		next++
	}
	return bins
}

// window reads a base and n counters, keeping the non-empty ones.
func (r *snapshotReader) window(bins []stats.SketchBin, n uint64) []stats.SketchBin {
	base := r.uvarint()
	if r.err != nil {
		return bins
	}
	switch {
	case base >= stats.SketchMaxBuckets || n > stats.SketchMaxBuckets-base:
		r.fail(fmt.Errorf("%w: sketch window of %d counters from bucket %d", ErrSnapshotCorrupt, n, base))
		return bins
	case n > uint64(len(r.b)):
		r.fail(ErrSnapshotTruncated)
		return bins
	}
	for i := range n {
		c := r.uvarint()
		if r.err != nil {
			return bins
		}
		if c == 0 {
			if i == 0 || i == n-1 {
				r.fail(fmt.Errorf("%w: sketch window of %d counters from bucket %d ends empty", ErrSnapshotCorrupt, n, base))
				return bins
			}
			continue
		}
		bins = append(bins, stats.SketchBin{Index: int(base + i), Count: c})
	}
	return bins
}
