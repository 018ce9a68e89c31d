// Package packet defines the packet model shared by the simulator and the
// measurement instruments: IPv4 addressing, comparable 5-tuple flow keys
// (usable directly as map keys, following the gopacket Flow/Endpoint idiom),
// the RLI reference-packet wire format, and ToS-based path marking.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. It is a value type so that
// FlowKey remains comparable and hashes without allocation.
type Addr uint32

// AddrFrom4 builds an address from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("10.1.2.3").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
	}
	var out Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
		}
		out = out<<8 | Addr(v)
	}
	return out, nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// AppendTo appends a in dotted-quad notation to dst without allocating.
func (a Addr) AppendTo(dst []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		dst = strconv.AppendUint(dst, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}

// String formats a in dotted-quad notation.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.AppendTo(buf[:0]))
}

// Prefix is an IPv4 CIDR prefix. Bits outside the mask are ignored by
// Contains but preserved by Addr for display.
type Prefix struct {
	Addr Addr
	Len  int // 0..32
}

// ParsePrefix parses "10.1.0.0/16".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("packet: prefix %q missing '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix length in %q", s)
	}
	return Prefix{Addr: a, Len: n}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the netmask of p as a 32-bit value.
func (p Prefix) Mask() uint32 {
	if p.Len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(p.Len))
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	m := p.Mask()
	return uint32(p.Addr)&m == uint32(a)&m
}

// Canonical returns p with host bits zeroed.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: Addr(uint32(p.Addr) & p.Mask()), Len: p.Len}
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// String formats p in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}
