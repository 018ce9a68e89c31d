// Package ecmp models equal-cost multi-path forwarding hash functions and
// their inversion.
//
// Switch vendors hash a packet's 5-tuple to pick one of several equal-cost
// next hops. The hash functions are deterministic but unpublished; the paper
// (§3.1, "reverse ECMP computation") assumes vendors can be persuaded to
// reveal them, letting an RLIR receiver re-run the hash of an upstream switch
// to work out which path a regular packet took — and therefore which
// reference stream it belongs to.
//
// This package provides a small family of deterministic hash functions in the
// styles vendors actually use (CRC folding, FNV folding, XOR folding), each
// seeded per switch. The reverse computation itself needs the topology and
// lives with it: topo.FatTree.ResolveCore re-runs a pod's hashers.
package ecmp

import (
	"fmt"

	"github.com/netmeasure/rlir/internal/packet"
)

// Hasher maps a flow key to a 32-bit ECMP hash. Implementations must be
// deterministic: the same key always yields the same hash.
type Hasher interface {
	Hash(k packet.FlowKey) uint32
	Name() string
}

// Kind selects a hash algorithm.
type Kind uint8

const (
	// KindCRC folds the 5-tuple through CRC-16/CCITT, the classic TCAM-era
	// choice.
	KindCRC Kind = iota
	// KindFNV folds the 5-tuple through FNV-1a.
	KindFNV
	// KindXOR xor-folds the tuple words, the cheapest (and least uniform)
	// scheme; useful for studying polarization.
	KindXOR
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindCRC:
		return "crc16"
	case KindFNV:
		return "fnv1a"
	case KindXOR:
		return "xor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// New returns a Hasher of the given kind with a per-switch seed. Distinct
// seeds de-correlate hash decisions between switches, which real deployments
// rely on to avoid traffic polarization.
func New(kind Kind, seed uint32) Hasher {
	switch kind {
	case KindCRC:
		return crcHasher{seed: seed}
	case KindFNV:
		return fnvHasher{seed: seed}
	case KindXOR:
		return xorHasher{seed: seed}
	default:
		panic(fmt.Sprintf("ecmp: unknown hash kind %d", kind))
	}
}

// tupleWords packs the 5-tuple into three 32-bit words for folding.
func tupleWords(k packet.FlowKey) (w0, w1, w2 uint32) {
	return uint32(k.Src), uint32(k.Dst),
		uint32(k.SrcPort)<<16 | uint32(k.DstPort)&0xFFFF ^ uint32(k.Proto)<<8
}

// --- CRC-16/CCITT-FALSE folding ---

var crcTable [256]uint16

func init() {
	const poly = 0x1021
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		crcTable[i] = crc
	}
}

type crcHasher struct{ seed uint32 }

func (h crcHasher) Name() string { return fmt.Sprintf("crc16(seed=%#x)", h.seed) }

func (h crcHasher) Hash(k packet.FlowKey) uint32 {
	crc := uint16(0xFFFF)
	update := func(v uint32, n int) {
		for i := n - 1; i >= 0; i-- {
			b := byte(v >> (8 * uint(i)))
			crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
		}
	}
	w0, w1, w2 := tupleWords(k)
	update(w0, 4)
	update(w1, 4)
	update(w2, 4)
	// CRC is linear, so folding the seed into the message would only XOR a
	// constant into every hash — two switches with different seeds would
	// still make identical modulo-n choices. A seed-keyed multiplicative
	// avalanche breaks that linearity while keeping the per-switch function
	// deterministic.
	v := uint32(crc) ^ h.seed
	v *= 2654435761 // Knuth's multiplicative constant
	v ^= v >> 16
	v *= 0x45d9f3b
	v ^= v >> 16
	return v
}

// --- FNV-1a folding ---

type fnvHasher struct{ seed uint32 }

func (h fnvHasher) Name() string { return fmt.Sprintf("fnv1a(seed=%#x)", h.seed) }

func (h fnvHasher) Hash(k packet.FlowKey) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	v := uint32(offset32) ^ h.seed
	mix := func(w uint32) {
		for i := 0; i < 4; i++ {
			v ^= w & 0xff
			v *= prime32
			w >>= 8
		}
	}
	w0, w1, w2 := tupleWords(k)
	mix(w0)
	mix(w1)
	mix(w2)
	return v
}

// --- XOR folding ---

type xorHasher struct{ seed uint32 }

func (h xorHasher) Name() string { return fmt.Sprintf("xor(seed=%#x)", h.seed) }

func (h xorHasher) Hash(k packet.FlowKey) uint32 {
	w0, w1, w2 := tupleWords(k)
	v := w0 ^ w1 ^ w2 ^ h.seed
	// One round of avalanche so that low bits depend on high bits; without
	// it, Select over small n would ignore most of the tuple.
	v ^= v >> 16
	v *= 0x45d9f3b
	v ^= v >> 16
	return v
}

// Select maps key k to one of n next hops using h. It panics if n <= 0.
// The modulo-n reduction matches how fixed-next-hop-table ASICs behave.
func Select(h Hasher, k packet.FlowKey, n int) int {
	if n <= 0 {
		panic("ecmp: Select with no next hops")
	}
	if n == 1 {
		return 0
	}
	return int(h.Hash(k) % uint32(n))
}
