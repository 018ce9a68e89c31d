package topo

import "github.com/netmeasure/rlir/internal/packet"

// Equal-cost multi-path forwarding. Switch vendors hash a packet's 5-tuple
// to pick one of several equal-cost next hops. The hash functions are
// deterministic but unpublished; the paper (§3.1, "reverse ECMP
// computation") assumes vendors can be persuaded to reveal them, letting an
// RLIR receiver re-run the hash of an upstream switch to work out which path
// a regular packet took — and therefore which reference stream it belongs
// to (FatTree.ResolveCore). Every switch here folds the tuple through
// CRC-16/CCITT, the classic TCAM-era choice, keyed by a per-switch seed.

// crcTable[n][b] is the CRC state after byte b and then n zero bytes, from
// state 0 ("slicing by 4"): a word's four bytes are four independent probes
// instead of a chain of four dependent ones.
var crcTable [4][256]uint16

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
		crcTable[0][i] = crc
	}
	for n := 1; n < 4; n++ {
		for i, c := range crcTable[n-1] {
			crcTable[n][i] = c<<8 ^ crcTable[0][byte(c>>8)]
		}
	}
}

// ecmpHash maps a flow key to the 32-bit ECMP hash of the switch seeded
// with seed. Distinct seeds de-correlate hash decisions between switches,
// which real deployments rely on to avoid traffic polarization.
func ecmpHash(seed uint32, k packet.FlowKey) uint32 {
	// The 5-tuple packed into three 32-bit words.
	crc := crcWord(0xFFFF, uint32(k.Src))
	crc = crcWord(crc, uint32(k.Dst))
	crc = crcWord(crc, uint32(k.SrcPort)<<16|uint32(k.DstPort)&0xFFFF^uint32(k.Proto)<<8)
	// CRC is linear, so folding the seed into the message would only XOR a
	// constant into every hash — two switches with different seeds would
	// still make identical modulo-n choices. A seed-keyed multiplicative
	// avalanche breaks that linearity while keeping the per-switch function
	// deterministic.
	v := uint32(crc) ^ seed
	v *= 2654435761 // Knuth's multiplicative constant
	v ^= v >> 16
	v *= 0x45d9f3b
	v ^= v >> 16
	return v
}

// crcWord folds the four bytes of v, most significant first, into crc.
func crcWord(crc uint16, v uint32) uint16 {
	x := uint32(crc)<<16 ^ v
	return crcTable[3][byte(x>>24)] ^ crcTable[2][byte(x>>16)] ^ crcTable[1][byte(x>>8)] ^ crcTable[0][byte(x)]
}

// ecmpSelect maps key k to one of n next hops at the switch seeded with
// seed. It panics if n <= 0. The modulo-n reduction matches how
// fixed-next-hop-table ASICs behave.
func ecmpSelect(seed uint32, k packet.FlowKey, n int) int {
	if n <= 0 {
		panic("topo: ecmpSelect with no next hops")
	}
	if n == 1 {
		return 0
	}
	return int(ecmpHash(seed, k) % uint32(n))
}
