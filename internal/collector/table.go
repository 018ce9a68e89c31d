package collector

import (
	"math/bits"

	"github.com/netmeasure/rlir/internal/packet"
)

// flowTable is a shard's index of its live flows: open addressing with
// linear probing over a power-of-two slot array, probed with the key's
// FastHash — the hash Collector.place already computed to pick the shard, so
// a sample is hashed once between the wire and its row. A hash match alone
// is never trusted (FastHash collides): a slot matches on hash and key.
// Removal shifts the rest of the probe run back over the hole, so there are
// no tombstones and a miss ends at the first empty slot. The load stays at
// or below 1/2 — the table doubles before it would pass it — so a capped
// table settles at the first power of two at least twice its cap and never
// grows again.
type flowTable struct {
	slots []*flowEntry
	n     int
	shift uint // 64 - log2(len(slots)): home keeps the top bits
}

// minTableSlots is the size a table starts at.
const minTableSlots = 16

func newFlowTable() flowTable {
	return flowTable{
		slots: make([]*flowEntry, minTableSlots),
		shift: uint(64 - bits.TrailingZeros(minTableSlots)),
	}
}

// home is the slot a hash's probe run starts at: the top bits of a
// multiplicative remix, not h's low bits. Every flow one fleet instance
// receives shares FastHash mod N (fleet.Partition), and every flow of one
// shard FastHash mod S, so low-bit slots would cluster.
func (t *flowTable) home(h uint64) int { return int(h * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns key's entry, or nil and the empty slot its probe run ended
// at — where insert puts the key while nothing has been removed since.
func (t *flowTable) find(key packet.FlowKey, h uint64) (*flowEntry, int) {
	mask := len(t.slots) - 1
	for i := t.home(h); ; i = (i + 1) & mask {
		if e := t.slots[i]; e == nil || e.h == h && e.agg.Key == key {
			return e, i
		}
	}
}

// insert puts e, whose key is absent, into slot i as find returned it,
// doubling the table first when e would take the load past 1/2.
func (t *flowTable) insert(e *flowEntry, i int) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*flowEntry, 2*len(old))
		t.shift--
		for _, f := range old {
			if f != nil {
				_, j := t.find(f.agg.Key, f.h)
				t.slots[j] = f
			}
		}
		_, i = t.find(e.agg.Key, e.h)
	}
	t.slots[i] = e
	t.n++
}

// remove takes e, which is in the table, out of it. Each later entry of the
// probe run moves back into the hole when the hole lies on its own run —
// cyclically between its home slot and its slot — which keeps every entry
// reachable from its home without a tombstone.
func (t *flowTable) remove(e *flowEntry) {
	mask := len(t.slots) - 1
	i := t.home(e.h)
	for t.slots[i] != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if f := t.slots[j]; (j-t.home(f.h))&mask >= (j-i)&mask {
			t.slots[i], i = f, j
		}
	}
	t.slots[i] = nil
	t.n--
}
