package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/netmeasure/rlir/internal/packet"
)

func randomKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		Src:     packet.Addr(rng.Uint32()),
		Dst:     packet.Addr(rng.Uint32()),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Proto:   packet.ProtoTCP,
	}
}

// TestECMPHashPinned holds path selection to the values the hash produced
// when it was the CRC member of package ecmp: a drift here re-routes every
// fat-tree flow and moves every golden fixture.
func TestECMPHashPinned(t *testing.T) {
	rows := []struct {
		key        packet.FlowKey
		seed, hash uint32
		n2, n3, n8 int
	}{
		{packet.FlowKey{Src: 0x0, Dst: 0x0, SrcPort: 0, DstPort: 0, Proto: 0}, 0x0, 0x3a9b36b4, 0, 0, 4},
		{packet.FlowKey{Src: 0xa000002, Dst: 0xa030103, SrcPort: 1024, DstPort: 80, Proto: 6}, 0x1, 0x4e113f9c, 0, 2, 4},
		{packet.FlowKey{Src: 0xa030103, Dst: 0xa000002, SrcPort: 80, DstPort: 1024, Proto: 6}, 0x5eed, 0xc26775fe, 0, 2, 6},
		{packet.FlowKey{Src: 0xffffffff, Dst: 0xffffffff, SrcPort: 65535, DstPort: 65535, Proto: 255}, 0xffffffff, 0x3b4ee7cd, 1, 0, 5},
		{packet.FlowKey{Src: 0x5f5d2053, Dst: 0xff9c2689, SrcPort: 45329, DstPort: 43994, Proto: 244}, 0x9e37, 0x87355de, 0, 1, 6},
		{packet.FlowKey{Src: 0x1f6c9921, Dst: 0x1692ef7b, SrcPort: 40907, DstPort: 41464, Proto: 208}, 0xdeadbeef, 0x5592970f, 1, 1, 7},
		{packet.FlowKey{Src: 0x431df390, Dst: 0x5a8f7115, SrcPort: 13984, DstPort: 10644, Proto: 150}, 0x0, 0x60633ece, 0, 1, 6},
		{packet.FlowKey{Src: 0x1b2dcddd, Dst: 0x6630968e, SrcPort: 62690, DstPort: 40950, Proto: 240}, 0x1, 0x92172945, 1, 0, 5},
		{packet.FlowKey{Src: 0x25957486, Dst: 0x6496f10d, SrcPort: 54629, DstPort: 63789, Proto: 205}, 0x5eed, 0xbcfa9e73, 1, 0, 3},
		{packet.FlowKey{Src: 0x5a960f3f, Dst: 0x24f9e2fe, SrcPort: 58276, DstPort: 50460, Proto: 237}, 0xffffffff, 0xc276988a, 0, 2, 2},
		{packet.FlowKey{Src: 0x94c5f6f2, Dst: 0xe5bde50d, SrcPort: 39509, DstPort: 64567, Proto: 15}, 0x9e37, 0xed0e8a0c, 0, 2, 4},
		{packet.FlowKey{Src: 0xf5e98a14, Dst: 0x2a77900e, SrcPort: 32834, DstPort: 63501, Proto: 62}, 0xdeadbeef, 0x6c3395a8, 0, 2, 0},
		{packet.FlowKey{Src: 0x46168eaf, Dst: 0xd8ecf16f, SrcPort: 28867, DstPort: 20669, Proto: 97}, 0x0, 0x6a3e44b7, 1, 2, 7},
		{packet.FlowKey{Src: 0x22fb8372, Dst: 0x25989a0c, SrcPort: 7743, DstPort: 63722, Proto: 217}, 0x1, 0xe0248013, 1, 2, 3},
		{packet.FlowKey{Src: 0x7377ce48, Dst: 0x1dd6b7b8, SrcPort: 28839, DstPort: 59618, Proto: 254}, 0x5eed, 0xa214e9d, 1, 2, 5},
		{packet.FlowKey{Src: 0x489d94d9, Dst: 0xdaae63d0, SrcPort: 29165, DstPort: 18115, Proto: 100}, 0xffffffff, 0xcd040d2, 0, 2, 2},
		{packet.FlowKey{Src: 0x4ec24b14, Dst: 0xcdf66a43, SrcPort: 4068, DstPort: 58553, Proto: 173}, 0x9e37, 0xdbb8156a, 0, 2, 2},
		{packet.FlowKey{Src: 0x6b82d118, Dst: 0x9399a8a4, SrcPort: 13365, DstPort: 53941, Proto: 18}, 0xdeadbeef, 0x9d001459, 1, 2, 1},
		{packet.FlowKey{Src: 0x9fa98e6b, Dst: 0xff367f13, SrcPort: 60662, DstPort: 10902, Proto: 175}, 0x0, 0x21c3fa93, 1, 1, 3},
		{packet.FlowKey{Src: 0x62953f86, Dst: 0x95c0b84e, SrcPort: 48177, DstPort: 61446, Proto: 45}, 0x1, 0xff01603c, 0, 1, 4},
	}
	for _, r := range rows {
		if got := ecmpHash(r.seed, r.key); got != r.hash {
			t.Errorf("ecmpHash(%#x, %v) = %#x, want %#x", r.seed, r.key, got, r.hash)
		}
		for _, c := range []struct{ n, want int }{{2, r.n2}, {3, r.n3}, {8, r.n8}} {
			if got := ecmpSelect(r.seed, r.key, c.n); got != c.want {
				t.Errorf("ecmpSelect(%#x, %v, %d) = %d, want %d", r.seed, r.key, c.n, got, c.want)
			}
		}
	}
}

func TestECMPDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		k := randomKey(rng)
		if ecmpHash(0x1234, k) != ecmpHash(0x1234, k) {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestECMPSeedsDecorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	same := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		k := randomKey(rng)
		if ecmpSelect(1, k, 2) == ecmpSelect(2, k, 2) {
			same++
		}
	}
	// Two independent fair coins agree ~50%; flag >70% as correlated.
	if same > trials*7/10 {
		t.Errorf("seeds correlated, %d/%d identical 2-way choices", same, trials)
	}
}

func TestECMPSelectUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	counts := make([]int, n)
	const trials = 80000
	for i := 0; i < trials; i++ {
		counts[ecmpSelect(7, randomKey(rng), n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d has %d of %d (want ~%.0f ±5%%)", i, c, trials, want)
		}
	}
}

func TestECMPSelectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 16; n++ {
		for i := 0; i < 200; i++ {
			got := ecmpSelect(0, randomKey(rng), n)
			if got < 0 || got >= n {
				t.Fatalf("ecmpSelect out of range: %d with n=%d", got, n)
			}
		}
	}
}

func TestECMPSelectSingleNextHop(t *testing.T) {
	if ecmpSelect(0, packet.FlowKey{}, 1) != 0 {
		t.Fatal("n=1 must always choose 0")
	}
}

func TestECMPSelectPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ecmpSelect(0, packet.FlowKey{}, 0)
}

func TestECMPHashSensitivityToTupleFields(t *testing.T) {
	// Flipping any single tuple field should change the hash for the vast
	// majority of keys — otherwise reverse-ECMP misclassifies flows.
	rng := rand.New(rand.NewSource(5))
	changed := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		k := randomKey(rng)
		k2 := k
		switch i % 4 {
		case 0:
			k2.Src++
		case 1:
			k2.Dst++
		case 2:
			k2.SrcPort++
		case 3:
			k2.DstPort++
		}
		if ecmpHash(9, k) != ecmpHash(9, k2) {
			changed++
		}
	}
	if changed < trials*95/100 {
		t.Errorf("only %d/%d single-field flips changed the hash", changed, trials)
	}
}

func TestECMPHashDeterministicProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, seed uint32) bool {
		k := packet.FlowKey{Src: packet.Addr(src), Dst: packet.Addr(dst), SrcPort: sp, DstPort: dp, Proto: packet.ProtoUDP}
		return ecmpHash(seed, k) == ecmpHash(seed, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkECMPHash(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	keys := make([]packet.FlowKey, 1024)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ecmpHash(11, keys[i&1023])
	}
}
