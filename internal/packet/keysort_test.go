package packet

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortByKeyMatchesStableSort pins SortByKey to a stable comparison sort
// on random keys: short and long slices, keys drawn from a few values per
// field (so most bytes are shared and duplicates are common) or from the
// whole range, with each element's input position as its payload. The same
// keys sorted by SortByKeyIn in one KeyScratch, regrown and reused across
// trials, come out the same, and once it has grown a sort in it allocates
// nothing.
func TestSortByKeyMatchesStableSort(t *testing.T) {
	type elem struct {
		key FlowKey
		pos int
	}
	rng := rand.New(rand.NewSource(1))
	key := func(e *elem) FlowKey { return e.key }
	var sc KeyScratch
	var last []elem
	for trial := range 200 {
		n := rng.Intn(200)
		if trial%10 == 0 {
			n = rng.Intn(5000)
		}
		narrow := trial%2 == 0
		draw := func(wide uint64) uint64 {
			if narrow {
				return uint64(rng.Intn(3))
			}
			return rng.Uint64() % wide
		}
		s := make([]elem, n)
		for i := range s {
			s[i] = elem{FlowKey{
				Src: Addr(0x0a000000 | draw(1<<32)), Dst: Addr(draw(1 << 32)),
				SrcPort: uint16(draw(1 << 16)), DstPort: uint16(draw(1 << 16)), Proto: Proto(draw(1 << 8)),
			}, i}
		}
		want := slices.Clone(s)
		slices.SortStableFunc(want, func(a, b elem) int { return a.key.Compare(b.key) })
		kept := slices.Clone(s)
		SortByKey(s, key)
		if !slices.Equal(s, want) {
			t.Fatalf("trial %d (n=%d, narrow=%v): SortByKey differs from a stable sort", trial, n, narrow)
		}
		SortByKeyIn(kept, key, &sc)
		if !slices.Equal(kept, want) {
			t.Fatalf("trial %d (n=%d, narrow=%v): SortByKeyIn differs from a stable sort", trial, n, narrow)
		}
		last = kept
	}
	if n := testing.AllocsPerRun(10, func() { SortByKeyIn(last, key, &sc) }); n != 0 {
		t.Fatalf("SortByKeyIn in grown scratch allocates %v times per sort, want 0", n)
	}
}
