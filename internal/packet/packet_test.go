package packet

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

func TestFlowKeyAsMapKey(t *testing.T) {
	k1 := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	k2 := k1
	m := map[FlowKey]int{k1: 7}
	if m[k2] != 7 {
		t.Fatal("equal keys should collide in map")
	}
	k2.SrcPort = 1235
	if _, ok := m[k2]; ok {
		t.Fatal("different keys should not collide")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: AddrFrom4(1, 2, 3, 4), Dst: AddrFrom4(5, 6, 7, 8), SrcPort: 10, DstPort: 20, Proto: ProtoUDP}
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestFastHashDistinguishesFields(t *testing.T) {
	base := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	h := base.FastHash()
	variants := []FlowKey{
		{Src: AddrFrom4(10, 0, 0, 3), Dst: base.Dst, SrcPort: 1, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: AddrFrom4(10, 0, 0, 3), SrcPort: 1, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 9, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 1, DstPort: 9, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 1, DstPort: 2, Proto: ProtoUDP},
		base.Reverse(),
	}
	for i, v := range variants {
		if v.FastHash() == h {
			t.Errorf("variant %d hashes equal to base (weak hash)", i)
		}
	}
}

func TestFastHashDeterministicProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return k.FastHash() == k.FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefPayloadDelay(t *testing.T) {
	r := RefPayload{Timestamp: simtime.FromSeconds(1.0)}
	got := r.Delay(simtime.FromSeconds(1.0).Add(83 * time.Microsecond))
	if got != 83*time.Microsecond {
		t.Fatalf("Delay = %v, want 83µs", got)
	}
}

func TestRecordHopAndTraversed(t *testing.T) {
	var p Packet
	p.RecordHop(3)
	p.RecordHop(7)
	if !p.Traversed(3) || !p.Traversed(7) || p.Traversed(5) {
		t.Fatalf("Hops = %v", p.Hops)
	}
}

func TestStringersSmoke(t *testing.T) {
	k := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	if k.String() == "" {
		t.Error("empty FlowKey.String")
	}
	p := Packet{ID: 1, Key: k, Size: 64, Kind: Reference}
	if p.String() == "" {
		t.Error("empty Packet.String")
	}
	for _, kind := range []Kind{Regular, Reference, Cross, Kind(99)} {
		if kind.String() == "" {
			t.Error("empty Kind.String")
		}
	}
	for _, pr := range []Proto{ProtoTCP, ProtoUDP, Proto(47)} {
		if pr.String() == "" {
			t.Error("empty Proto.String")
		}
	}
}

// TestFlowKeyLess pins the canonical ordering: strict weak, field by field.
func TestFlowKeyLess(t *testing.T) {
	base := FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	if base.Less(base) {
		t.Fatal("key < itself")
	}
	bump := []FlowKey{
		{Src: 2, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 3, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 4, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 5, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP},
	}
	for i, hi := range bump {
		if !base.Less(hi) || hi.Less(base) {
			t.Fatalf("field %d: ordering wrong for %v vs %v", i, base, hi)
		}
	}
	// Earlier fields dominate later ones.
	lo := FlowKey{Src: 1, Dst: 9, SrcPort: 9, DstPort: 9, Proto: ProtoUDP}
	hi := FlowKey{Src: 2}
	if !lo.Less(hi) || hi.Less(lo) {
		t.Fatal("Src must dominate later fields")
	}
}

// TestRecordHopInlineThenSpill pins the hop buffer's two regimes: a
// fat-tree-length trace allocates nothing, and a longer one spills to the
// heap with every hop kept.
func TestRecordHopInlineThenSpill(t *testing.T) {
	var p Packet
	if allocs := testing.AllocsPerRun(100, func() {
		p = Packet{}
		for n := int32(0); n < 8; n++ {
			p.RecordHop(n)
		}
	}); allocs != 0 {
		t.Fatalf("recording 8 hops allocated %.1f times, want 0", allocs)
	}
	for n := int32(8); n < 20; n++ {
		p.RecordHop(n)
	}
	if len(p.Hops) != 20 {
		t.Fatalf("len(Hops) = %d after 20 hops", len(p.Hops))
	}
	for i, h := range p.Hops {
		if h != int32(i) {
			t.Fatalf("Hops = %v, want 0..19 in order", p.Hops)
		}
	}
}

// TestRecordHopAfterStructCopy is the guard for the inline buffer's one
// hazard: a struct copy's Hops starts out pointing into the original. The
// copy's next RecordHop must move the trace onto the copy's own buffer rather
// than append through the shared one, and a caller-assigned Hops must be
// adopted the same way.
func TestRecordHopAfterStructCopy(t *testing.T) {
	orig := &Packet{ID: 1}
	orig.RecordHop(1)
	orig.RecordHop(2)
	cp := new(Packet)
	*cp = *orig
	cp.RecordHop(30)
	orig.RecordHop(3)
	orig.RecordHop(4)
	if want := []int32{1, 2, 30}; !slices.Equal(cp.Hops, want) {
		t.Fatalf("copy's Hops = %v, want %v", cp.Hops, want)
	}
	if want := []int32{1, 2, 3, 4}; !slices.Equal(orig.Hops, want) {
		t.Fatalf("original's Hops = %v after the copy recorded a hop, want %v", orig.Hops, want)
	}

	assigned := &Packet{Hops: []int32{7, 8, 9}}
	assigned.RecordHop(10)
	if want := []int32{7, 8, 9, 10}; !slices.Equal(assigned.Hops, want) {
		t.Fatalf("Hops = %v after recording onto an assigned trace, want %v", assigned.Hops, want)
	}
}

// TestSlabCarvesDistinctZeroPackets crosses a chunk boundary: every packet
// is zero, its own, and untouched by later carving.
func TestSlabCarvesDistinctZeroPackets(t *testing.T) {
	var s Slab
	const n = 10000
	seen := make(map[*Packet]bool, n)
	for i := 0; i < n; i++ {
		p := s.New()
		if seen[p] {
			t.Fatalf("packet %d handed out twice", i)
		}
		if p.ID != 0 || p.Size != 0 || p.Hops != nil {
			t.Fatalf("packet %d not zero: %+v", i, *p)
		}
		seen[p] = true
		p.ID = uint64(i + 1)
	}
	for p := range seen {
		if p.ID == 0 {
			t.Fatal("a carved packet was overwritten by later carving")
		}
	}
}
