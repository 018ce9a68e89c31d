package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
)

// planAddrs returns every address of ft's plan — hosts and switch
// loopbacks — plus the addresses just outside it: past the last host of a
// ToR, past the last ToR and pod, and outside 10/8.
func planAddrs(ft *FatTree) []packet.Addr {
	k, h := ft.Cfg.K, ft.Half()
	var as []packet.Addr
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for hh := 0; hh < h; hh++ {
				as = append(as, ft.HostAddr(p, e, hh))
			}
			as = append(as, ft.ToRAddr(p, e), ft.HostAddr(p, e, h), ft.HostAddr(p, e, -2))
		}
		for a := 0; a < h; a++ {
			as = append(as, ft.AggAddr(p, a))
		}
		as = append(as, ft.HostAddr(p, h, 0))
	}
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			as = append(as, ft.CoreAddr(j, i))
		}
	}
	return append(as, ft.HostAddr(k, 0, 0), packet.AddrFrom4(11, 0, 0, 2), packet.AddrFrom4(192, 168, 1, 1))
}

// switches returns ft's routers in NodeID order.
func switches(ft *FatTree) []*router {
	var rs []*router
	for _, r := range ft.routers {
		if r != nil {
			rs = append(rs, r)
		}
	}
	return rs
}

// lpmForward is the routing spec's answer for a packet with key at r's
// switch: an LPM lookup on its table, then ECMP over the candidates.
func lpmForward(r *router, key packet.FlowKey) (route, int) {
	want, _ := r.tbl.Lookup(key.Dst)
	if len(want) == 0 {
		return want, -1
	}
	return want, want[ecmpSelect(r.seed, key, len(want))]
}

// TestHostRoutesMatchLPM pins each switch's compiled host routes to its LPM
// table, the one routing spec: for every switch and every address of the
// plan (and its near misses), the installed forwarder's candidate ports
// equal the table's, and so does its ECMP choice for sampled keys.
func TestHostRoutesMatchLPM(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, k := range []int{2, 4, 6, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.K = k
			_, ft := build(t, cfg)
			rs := switches(ft)
			if want := k*k/4 + k*k; len(rs) != want {
				t.Fatalf("%d routers, want %d", len(rs), want)
			}
			for _, r := range rs {
				for _, a := range planAddrs(ft) {
					want, _ := r.tbl.Lookup(a)
					if got := r.candidates(a); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("switch seeded %#x, dst %v: candidates %v, LPM %v", r.seed, a, got, want)
					}
					for s := 0; s < 4; s++ {
						key := randomKey(rng)
						key.Dst = a
						if _, want := lpmForward(r, key); r.forward(nil, &packet.Packet{Key: key}) != want {
							t.Fatalf("switch seeded %#x, key %v: forwarded to %d, LPM + ECMP to %d",
								r.seed, key, r.forward(nil, &packet.Packet{Key: key}), want)
						}
					}
				}
			}
		})
	}
}

// FuzzForward checks any destination and key at any switch of a k = 6
// fat-tree (ToRs with three hosts, so host indices are not powers of two)
// against an LPM lookup plus ECMP on that switch's table.
func FuzzForward(f *testing.F) {
	cfg := DefaultConfig()
	cfg.K = 6
	_, ft := build(f, cfg)
	rs := switches(ft)
	for i, a := range planAddrs(ft) {
		f.Add(uint32(a), uint32(ft.HostAddr(i%6, 0, 1)), uint16(i), uint16(80), uint8(packet.ProtoTCP), uint8(i))
	}
	f.Fuzz(func(t *testing.T, dst, src uint32, sport, dport uint16, proto, sw uint8) {
		key := packet.FlowKey{Src: packet.Addr(src), Dst: packet.Addr(dst), SrcPort: sport, DstPort: dport, Proto: packet.Proto(proto)}
		r := rs[int(sw)%len(rs)]
		want, port := lpmForward(r, key)
		if got := r.candidates(key.Dst); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("candidates %v, LPM %v", got, want)
		}
		if got := r.forward(nil, &packet.Packet{Key: key}); got != port {
			t.Fatalf("forwarded to %d, LPM + ECMP to %d", got, port)
		}
	})
}

// BenchmarkForward times the installed forwarders on a capture-like mix:
// the hops of all-pairs inter-pod packets through a k = 8 fat-tree, each
// hop at the switch the packet reaches there, with one in 50 packets a
// reference addressed to a core loopback (the capture's static senders).
func BenchmarkForward(b *testing.B) {
	cfg := DefaultConfig()
	cfg.K = 8
	_, ft := build(b, cfg)
	k, h := cfg.K, cfg.K/2
	rng := rand.New(rand.NewSource(8))
	type hop struct {
		node *netsim.Node
		r    *router
		pk   *packet.Packet
	}
	var hops []hop
	for pkts := 0; len(hops) < 4096; pkts++ {
		sp, dp := rng.Intn(k), rng.Intn(k-1)
		if dp >= sp {
			dp++
		}
		key := randomKey(rng)
		key.Src = ft.HostAddr(sp, rng.Intn(h), rng.Intn(h))
		key.Dst = ft.HostAddr(dp, rng.Intn(h), rng.Intn(h))
		if pkts%50 == 0 {
			key.Dst = ft.CoreAddr(rng.Intn(h), rng.Intn(h))
		}
		pk := &packet.Packet{Key: key}
		p, e, _, _ := ft.LocateHost(key.Src)
		for n := ft.ToRs[p][e]; ft.routers[n.ID()] != nil; {
			r := ft.routers[n.ID()]
			hops = append(hops, hop{n, r, pk})
			out := r.forward(n, pk)
			if out < 0 {
				break
			}
			n = n.Port(out).Dst()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp := &hops[i&4095]
		hp.r.forward(hp.node, hp.pk)
	}
}
