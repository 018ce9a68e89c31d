package lpm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/netmeasure/rlir/internal/packet"
)

func pfx(s string) packet.Prefix { return packet.MustParsePrefix(s) }
func addr(s string) packet.Addr  { return packet.MustParseAddr(s) }

func TestLookupLongestMatch(t *testing.T) {
	tb := New[string]()
	tb.Insert(pfx("0.0.0.0/0"), "default")
	tb.Insert(pfx("10.0.0.0/8"), "ten")
	tb.Insert(pfx("10.1.0.0/16"), "ten-one")
	tb.Insert(pfx("10.1.2.0/24"), "ten-one-two")

	cases := []struct {
		a    string
		want string
	}{
		{"10.1.2.3", "ten-one-two"},
		{"10.1.3.3", "ten-one"},
		{"10.2.0.1", "ten"},
		{"192.168.0.1", "default"},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(addr(c.a))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q/%v, want %q", c.a, got, ok, c.want)
		}
	}
}

func TestLookupMissWithoutDefault(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx("10.0.0.0/8"), 1)
	if _, ok := tb.Lookup(addr("11.0.0.1")); ok {
		t.Fatal("lookup outside installed prefixes should miss")
	}
}

func TestInsertReplace(t *testing.T) {
	tb := New[int]()
	if !tb.Insert(pfx("10.0.0.0/8"), 1) {
		t.Fatal("first insert should report added")
	}
	if tb.Insert(pfx("10.0.0.0/8"), 2) {
		t.Fatal("second insert should report replaced")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	got, _ := tb.Lookup(addr("10.9.9.9"))
	if got != 2 {
		t.Fatalf("value = %d, want replacement 2", got)
	}
}

func TestZeroLengthPrefixIsDefaultRoute(t *testing.T) {
	tb := New[string]()
	tb.Insert(packet.Prefix{Len: 0}, "everything")
	for _, a := range []string{"0.0.0.0", "255.255.255.255", "10.1.2.3"} {
		if got, ok := tb.Lookup(addr(a)); !ok || got != "everything" {
			t.Fatalf("Lookup(%s) = %q/%v", a, got, ok)
		}
	}
}

func TestHostRoute(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx("10.1.2.3/32"), 9)
	if v, ok := tb.Lookup(addr("10.1.2.3")); !ok || v != 9 {
		t.Fatal("host route should match exactly")
	}
	if _, ok := tb.Lookup(addr("10.1.2.2")); ok {
		t.Fatal("host route should not match neighbours")
	}
}

// TestAgainstBruteForce cross-checks LPM against a linear scan over random
// prefix sets of every length 0–32: the table must always return the
// longest covering prefix. Each set goes in shuffled, so within one stride
// shorter prefixes often land after longer ones they must not overwrite.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		// Draw addresses near a few anchors so prefixes of different
		// lengths overlap inside one stride.
		anchors := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
		idx := make(map[packet.Prefix]int)
		var prefixes []packet.Prefix
		for i := 0; i < 150; i++ {
			a := anchors[rng.Intn(len(anchors))] ^ rng.Uint32()>>rng.Intn(33)
			p := packet.Prefix{Addr: packet.Addr(a), Len: rng.Intn(33)}.Canonical()
			if _, dup := idx[p]; dup {
				continue
			}
			idx[p] = len(prefixes)
			prefixes = append(prefixes, p)
		}
		tb := New[int]()
		for _, i := range rng.Perm(len(prefixes)) {
			tb.Insert(prefixes[i], i)
		}
		if tb.Len() != len(prefixes) {
			t.Fatalf("Len = %d, want %d", tb.Len(), len(prefixes))
		}
		for probe := 0; probe < 500; probe++ {
			a := packet.Addr(anchors[rng.Intn(len(anchors))] ^ rng.Uint32()>>rng.Intn(33))
			bestIdx, bestLen, found := -1, -1, false
			for i, p := range prefixes {
				if p.Contains(a) && p.Len > bestLen {
					bestIdx, bestLen, found = i, p.Len, true
				}
			}
			got, ok := tb.Lookup(a)
			if ok != found {
				t.Fatalf("Lookup(%v) found=%v, brute=%v", a, ok, found)
			}
			if found && got != bestIdx {
				// Equal-length duplicates are impossible (dedup above), so
				// indices must agree.
				t.Fatalf("Lookup(%v) = prefix %d (%v), brute force %d (%v)",
					a, got, prefixes[got], bestIdx, prefixes[bestIdx])
			}
		}
	}
}

func TestInsertLookupProperty(t *testing.T) {
	// Any inserted canonical prefix must be found by addresses inside it
	// unless a longer prefix shadows them — with a single entry there is no
	// shadowing.
	f := func(a uint32, l uint8) bool {
		p := packet.Prefix{Addr: packet.Addr(a), Len: int(l % 33)}.Canonical()
		tb := New[bool]()
		tb.Insert(p, true)
		v, ok := tb.Lookup(p.Addr)
		return ok && v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLookup probes a random 1 000-prefix table and a fat-tree ToR's
// table: host /32s, a subnet /24, pod /16s and the /0 default route (the
// k = 8 shape), probed with the destinations of inter-pod traffic.
func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	random := New[int]()
	for i := 0; i < 1000; i++ {
		random.Insert(packet.Prefix{Addr: packet.Addr(rng.Uint32()), Len: 8 + rng.Intn(25)}.Canonical(), i)
	}
	randomProbes := make([]packet.Addr, 1024)
	for i := range randomProbes {
		randomProbes[i] = packet.Addr(rng.Uint32())
	}
	const k = 8
	fatTree := New[int]()
	fatTree.Insert(packet.Prefix{Len: 0}, 0)
	for p := 0; p < k; p++ {
		fatTree.Insert(packet.Prefix{Addr: packet.AddrFrom4(10, byte(p), 0, 0), Len: 16}, 1)
	}
	fatTree.Insert(packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Len: 24}, 2)
	for h := 0; h < k/2; h++ {
		fatTree.Insert(packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, byte(2+h)), Len: 32}, 3+h)
	}
	fatTreeProbes := make([]packet.Addr, 1024)
	for i := range fatTreeProbes {
		fatTreeProbes[i] = packet.AddrFrom4(10, byte(rng.Intn(k)), byte(rng.Intn(k/2)), byte(2+rng.Intn(k/2)))
	}
	for _, c := range []struct {
		name   string
		tb     *Table[int]
		probes []packet.Addr
	}{{"random", random, randomProbes}, {"fattree", fatTree, fatTreeProbes}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.tb.Lookup(c.probes[i&1023])
			}
		})
	}
}
