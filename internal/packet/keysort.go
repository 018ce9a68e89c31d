package packet

// SortByKey sorts s into FlowKey.Compare order of key(&s[i]), stably. It is
// a least-significant-digit radix sort over the key's packed words that
// skips every byte all the keys share — a fat tree's addresses differ in a
// few bits, so a table of flows sorts in a handful of linear passes — and it
// calls key once per element, not once per comparison. Its scratch, 48 bytes
// per element, is allocated per call; SortByKeyIn sorts in kept scratch.
func SortByKey[E any](s []E, key func(*E) FlowKey) {
	SortByKeyIn(s, key, nil)
}

// KeyScratch is the working storage of SortByKeyIn, kept by a caller that
// sorts again and again: once it has grown to the longest slice sorted, a
// sort in it allocates nothing. The zero value is ready to use.
type KeyScratch struct {
	ord []packedKey
}

// SortByKeyIn is SortByKey with its scratch taken from sc, grown as needed;
// a nil sc sorts in fresh scratch, as SortByKey does.
func SortByKeyIn[E any](s []E, key func(*E) FlowKey, sc *KeyScratch) {
	if sc == nil {
		sc = new(KeyScratch)
	}
	if cap(sc.ord) < 2*len(s) {
		sc.ord = make([]packedKey, 2*len(s))
	}
	ord, tmp := sc.ord[:len(s)], sc.ord[len(s):2*len(s)]
	var diff [2]uint64 // the bits in which some key differs from the first
	for i := range s {
		k := key(&s[i])
		ord[i] = packedKey{w: [2]uint64{
			uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto),
			uint64(k.Src)<<32 | uint64(k.Dst),
		}, i: i}
		diff[0] |= ord[i].w[0] ^ ord[0].w[0]
		diff[1] |= ord[i].w[1] ^ ord[0].w[1]
	}
	for w := range diff { // the less significant word first
		for shift := 0; shift < 64; shift += 8 {
			if byte(diff[w]>>shift) == 0 {
				continue
			}
			var start [256]int
			for i := range ord {
				start[byte(ord[i].w[w]>>shift)]++
			}
			sum := 0
			for d, n := range start {
				start[d] = sum
				sum += n
			}
			for i := range ord {
				d := byte(ord[i].w[w] >> shift)
				tmp[start[d]] = ord[i]
				start[d]++
			}
			ord, tmp = tmp, ord
		}
	}
	permute(s, ord)
}

// packedKey is a FlowKey as two words that order as it does — (Src, Dst)
// in w[1], (SrcPort, DstPort, Proto) in w[0] — beside its element's index.
type packedKey struct {
	w [2]uint64
	i int
}

// permute rearranges s in place so that s[j] becomes the old s[ord[j].i],
// following each cycle of the permutation once; it marks ord as it goes.
func permute[E any](s []E, ord []packedKey) {
	for j := range ord {
		if ord[j].i < 0 || ord[j].i == j {
			continue
		}
		held := s[j]
		k := j
		for {
			next := ord[k].i
			ord[k].i = -1
			if next == j {
				s[k] = held
				break
			}
			s[k] = s[next]
			k = next
		}
	}
}
