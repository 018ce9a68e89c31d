// Package lpm implements a longest-prefix-match table over IPv4 prefixes as
// a stride-8 multibit trie.
//
// RLIR receivers use LPM twice (paper §3.1): upstream, to identify which ToR
// a regular packet originated from ("upstream RLI receivers need to perform
// simple IP prefix matching"); downstream, to separate upstream senders from
// core-facing ones before applying marking or reverse-ECMP resolution.
// A fat-tree switch's table is also its routing spec: internal/topo compiles
// it at install time into a dense route table for host destinations, so a
// per-hop lookup is left to packets for switch loopbacks and foreign
// addresses.
package lpm

import (
	"fmt"

	"github.com/netmeasure/rlir/internal/packet"
)

// Table maps IPv4 prefixes to values of type V with longest-prefix-match
// lookup. The zero value is not usable; create one with New.
//
// The trie consumes one address byte per level, so a lookup reads at most
// four entries. A level is 256 entries, one per value of its byte, and all
// levels live in one slice (level 0 is the root). A prefix of length L is
// painted onto every entry it covers in level (L-1)/8 (level 0 for L = 0),
// and an entry keeps the longest prefix covering it within that level's
// stride, whatever the insertion order. A longer match found deeper always
// beats a shallower one, so a lookup keeps the last value it passes.
type Table[V any] struct {
	ents []entry
	vals []V
	// idx maps each installed prefix to its slot in vals (1-based, as in
	// entry.val); replacing a value rewrites the slot in place.
	idx map[packet.Prefix]uint32
}

// entry is one slot of a level.
type entry struct {
	child uint32 // first entry of the next level; 0 = none (the root is never a child)
	val   uint32 // 1 + index into vals; 0 = no prefix covers this slot in this stride
	plen  uint8  // length of the prefix val came from
}

const fanout = 256 // entries per level: one per value of a byte

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{ents: make([]entry, fanout), idx: make(map[packet.Prefix]uint32)}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return len(t.idx) }

// Insert installs or replaces the value for prefix p (host bits are
// ignored). It reports whether the prefix was newly added (false means an
// existing entry was replaced).
func (t *Table[V]) Insert(p packet.Prefix, v V) bool {
	if p.Len < 0 || p.Len > 32 {
		panic(fmt.Sprintf("lpm: invalid prefix length %d", p.Len))
	}
	p = p.Canonical()
	if i, ok := t.idx[p]; ok {
		t.vals[i-1] = v
		return false
	}
	t.vals = append(t.vals, v)
	val := uint32(len(t.vals))
	t.idx[p] = val

	a := uint32(p.Addr)
	depth := max(0, (p.Len-1)/8)
	base := uint32(0)
	for d := 0; d < depth; d++ {
		i := base + a>>(24-8*d)&0xFF
		if t.ents[i].child == 0 {
			t.ents[i].child = uint32(len(t.ents))
			t.ents = append(t.ents, make([]entry, fanout)...)
		}
		base = t.ents[i].child
	}
	// The prefix's bits inside this stride select a run of 2^(8(depth+1)-L)
	// entries.
	span := uint32(1) << (8*(depth+1) - p.Len)
	first := base + a>>(24-8*depth)&0xFF&^(span-1)
	for i := first; i < first+span; i++ {
		if e := &t.ents[i]; e.val == 0 || int(e.plen) < p.Len {
			e.val, e.plen = val, uint8(p.Len)
		}
	}
	return true
}

// Lookup returns the value of the longest installed prefix containing a.
func (t *Table[V]) Lookup(a packet.Addr) (V, bool) {
	var val uint32
	base := uint32(0)
	for shift := 24; ; shift -= 8 {
		e := t.ents[base+uint32(a)>>shift&0xFF]
		if e.val != 0 {
			val = e.val
		}
		if e.child == 0 || shift == 0 {
			break
		}
		base = e.child
	}
	if val == 0 {
		var zero V
		return zero, false
	}
	return t.vals[val-1], true
}
