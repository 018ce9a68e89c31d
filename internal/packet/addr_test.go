package packet

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"10.1.2.3", AddrFrom4(10, 1, 2, 3), true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"256.0.0.1", 0, false},
		{"10.1.2", 0, false},
		{"10.1.2.3.4", 0, false},
		{"a.b.c.d", 0, false},
		{"10.01.2.3", 0, false}, // leading zero rejected
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err = %v, ok? %v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddrAppendToMatchesSprintf holds AppendTo (and String, built on it) to
// the "%d.%d.%d.%d" formatting it replaced, for every octet width boundary in
// every position, and pins that it appends in place without allocating.
func TestAddrAppendToMatchesSprintf(t *testing.T) {
	corners := []byte{0, 9, 10, 99, 100, 255}
	buf := make([]byte, 0, 64)
	for _, a := range corners {
		for _, b := range corners {
			for _, c := range corners {
				for _, d := range corners {
					addr := AddrFrom4(a, b, c, d)
					want := fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
					if got := addr.String(); got != want {
						t.Fatalf("String() = %q, want %q", got, want)
					}
					if got := string(addr.AppendTo(append(buf[:0], "x="...))); got != "x="+want {
						t.Fatalf("AppendTo = %q, want %q", got, "x="+want)
					}
				}
			}
		}
	}
	widest := AddrFrom4(255, 255, 255, 255)
	if n := testing.AllocsPerRun(100, func() { buf = widest.AppendTo(buf[:0]) }); n != 0 {
		t.Fatalf("AppendTo allocates %v times into a buffer with room", n)
	}
}

func TestOctets(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	o1, o2, o3, o4 := a.Octets()
	if o1 != 10 || o2 != 20 || o3 != 30 || o4 != 40 {
		t.Fatalf("Octets = %d.%d.%d.%d", o1, o2, o3, o4)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseAddr("not an address")
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.1.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != MustParseAddr("10.1.0.0") || p.Len != 16 {
		t.Fatalf("got %v", p)
	}
	for _, bad := range []string{"10.1.0.0", "10.1.0.0/33", "10.1.0.0/-1", "10.1.0/16", "10.1.0.0/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseAddr("10.1.255.255")) {
		t.Error("should contain 10.1.255.255")
	}
	if p.Contains(MustParseAddr("10.2.0.0")) {
		t.Error("should not contain 10.2.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("/0 should contain everything")
	}
	host := MustParsePrefix("10.1.2.3/32")
	if !host.Contains(MustParseAddr("10.1.2.3")) || host.Contains(MustParseAddr("10.1.2.4")) {
		t.Error("/32 should contain exactly itself")
	}
}

func TestPrefixCanonical(t *testing.T) {
	p := Prefix{Addr: MustParseAddr("10.1.2.3"), Len: 16}
	if got := p.Canonical().Addr; got != MustParseAddr("10.1.0.0") {
		t.Fatalf("Canonical = %v", got)
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.1.0.0/16")
	b := MustParsePrefix("10.1.2.0/24")
	c := MustParsePrefix("10.2.0.0/16")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixString(t *testing.T) {
	if got := MustParsePrefix("10.1.0.0/16").String(); got != "10.1.0.0/16" {
		t.Fatalf("String = %q", got)
	}
}

func TestPrefixContainsMatchesMaskArithmetic(t *testing.T) {
	f := func(addr, probe uint32, l uint8) bool {
		p := Prefix{Addr: Addr(addr), Len: int(l % 33)}
		want := uint32(addr)&p.Mask() == probe&p.Mask()
		return p.Contains(Addr(probe)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
