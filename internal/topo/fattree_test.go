package topo

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

func build(t testing.TB, cfg Config) (*eventsim.Engine, *FatTree) {
	t.Helper()
	eng := eventsim.New()
	nw := netsim.New(eng)
	ft, err := Build(cfg, nw)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ft
}

func TestBuildCounts(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.K = k
		_, ft := build(t, cfg)
		h := k / 2
		tors, aggs, cores := CountSwitches(k)
		if got := len(ft.Cores) * len(ft.Cores[0]); got != cores {
			t.Fatalf("k=%d: cores = %d, want %d", k, got, cores)
		}
		nTor, nAgg, nHost := 0, 0, 0
		for p := 0; p < k; p++ {
			nAgg += len(ft.Aggs[p])
			nTor += len(ft.ToRs[p])
			for e := 0; e < h; e++ {
				nHost += len(ft.Hosts[p][e])
			}
		}
		if nTor != tors || nAgg != aggs {
			t.Fatalf("k=%d: tors=%d aggs=%d, want %d/%d", k, nTor, nAgg, tors, aggs)
		}
		if want := k * h * h; nHost != want {
			t.Fatalf("k=%d: hosts = %d, want %d", k, nHost, want)
		}
		// Every switch has exactly k ports; hosts 1.
		for p := 0; p < k; p++ {
			for e := 0; e < h; e++ {
				if got := len(ft.ToRs[p][e].Ports()); got != k {
					t.Fatalf("ToR ports = %d, want %d", got, k)
				}
				if got := len(ft.Aggs[p][e].Ports()); got != k {
					t.Fatalf("agg ports = %d, want %d", got, k)
				}
			}
		}
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				if got := len(ft.Cores[j][i].Ports()); got != k {
					t.Fatalf("core ports = %d, want %d", got, k)
				}
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	eng := eventsim.New()
	for _, k := range []int{0, 1, 3, 256} {
		cfg := DefaultConfig()
		cfg.K = k
		if _, err := Build(cfg, netsim.New(eng)); err == nil {
			t.Errorf("K=%d should fail", k)
		}
	}
	cfg := DefaultConfig()
	cfg.LinkBps = 0
	if _, err := Build(cfg, netsim.New(eng)); err == nil {
		t.Error("zero link rate should fail")
	}
}

// deliverHostToHost injects a packet at a host and runs to delivery,
// returning the destination node name where it terminated.
func deliverHostToHost(t *testing.T, eng *eventsim.Engine, ft *FatTree, key packet.FlowKey) string {
	t.Helper()
	var deliveredAt string
	k, h := ft.Cfg.K, ft.Half()
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for hh := 0; hh < h; hh++ {
				host := ft.Hosts[p][e][hh]
				host.OnDeliver(func(pk *packet.Packet, _ simtime.Time) {
					if pk.Key == key {
						deliveredAt = host.Name()
					}
				})
			}
		}
	}
	src := ft.Hosts[0][0][0]
	pk := &packet.Packet{ID: ft.Net.NewPacketID(), Key: key, Size: 1000, Kind: packet.Regular}
	ft.Net.Inject(src, pk, simtime.Zero)
	eng.Run()
	return deliveredAt
}

func TestIntraPodDelivery(t *testing.T) {
	eng, ft := build(t, DefaultConfig())
	key := packet.FlowKey{
		Src: ft.HostAddr(0, 0, 0), Dst: ft.HostAddr(0, 1, 1),
		SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoTCP,
	}
	if got := deliverHostToHost(t, eng, ft, key); got != "host0.1.1" {
		t.Fatalf("delivered at %q, want host0.1.1", got)
	}
}

func TestInterPodDelivery(t *testing.T) {
	eng, ft := build(t, DefaultConfig())
	key := packet.FlowKey{
		Src: ft.HostAddr(0, 0, 0), Dst: ft.HostAddr(3, 1, 0),
		SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoTCP,
	}
	if got := deliverHostToHost(t, eng, ft, key); got != "host3.1.0" {
		t.Fatalf("delivered at %q, want host3.1.0", got)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every host can reach every other host.
	cfg := DefaultConfig()
	eng, ft := build(t, cfg)
	ft.Net.SetTracePaths(true)
	k, h := cfg.K, cfg.K/2

	type want struct {
		node *netsim.Node
		key  packet.FlowKey
	}
	var wants []want
	delivered := make(map[packet.FlowKey]string)
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for hh := 0; hh < h; hh++ {
				host := ft.Hosts[p][e][hh]
				host.OnDeliver(func(pk *packet.Packet, _ simtime.Time) {
					delivered[pk.Key] = host.Name()
				})
			}
		}
	}
	var id uint64
	at := simtime.Zero
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			src := ft.Hosts[p][e][0]
			for q := 0; q < k; q++ {
				for f := 0; f < h; f++ {
					if p == q && e == f {
						continue
					}
					id++
					key := packet.FlowKey{
						Src: ft.HostAddr(p, e, 0), Dst: ft.HostAddr(q, f, 1),
						SrcPort: uint16(id), DstPort: 80, Proto: packet.ProtoTCP,
					}
					ft.Net.Inject(src, &packet.Packet{ID: id, Key: key, Size: 500, Kind: packet.Regular}, at)
					at = at.Add(10 * time.Microsecond)
					wants = append(wants, want{ft.Hosts[q][f][1], key})
				}
			}
		}
	}
	eng.Run()
	for _, w := range wants {
		if got := delivered[w.key]; got != w.node.Name() {
			t.Fatalf("key %v delivered at %q, want %q", w.key, got, w.node.Name())
		}
	}
}

func TestReferencePacketPinnedToCore(t *testing.T) {
	// A packet addressed to core (j,i)'s loopback must terminate exactly at
	// that core, regardless of which host sends it: reference streams rely
	// on deterministic delivery.
	cfg := DefaultConfig()
	eng, ft := build(t, cfg)
	h := cfg.K / 2
	deliveredAt := make(map[packet.Addr]string)
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			core := ft.Cores[j][i]
			core.OnDeliver(func(pk *packet.Packet, _ simtime.Time) {
				deliveredAt[pk.Key.Dst] = core.Name()
			})
		}
	}
	var id uint64
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			for srcPod := 0; srcPod < cfg.K; srcPod++ {
				id++
				key := packet.FlowKey{
					Src: ft.HostAddr(srcPod, 0, 0), Dst: ft.CoreAddr(j, i),
					SrcPort: uint16(id), DstPort: 7, Proto: packet.ProtoUDP,
				}
				ft.Net.Inject(ft.Hosts[srcPod][0][0],
					&packet.Packet{ID: id, Key: key, Size: 64, Kind: packet.Reference},
					simtime.Time(int64(id)*1000))
			}
		}
	}
	eng.Run()
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			if got, want := deliveredAt[ft.CoreAddr(j, i)], fmt.Sprintf("core%d.%d", j, i); got != want {
				t.Fatalf("ref to %v delivered at %q, want %q", ft.CoreAddr(j, i), got, want)
			}
		}
	}
}

func TestResolveCoreMatchesGroundTruth(t *testing.T) {
	// The defining reverse-ECMP property: for random inter-pod flows, the
	// resolver's (j,i) must equal the core the packet actually traversed.
	cfg := DefaultConfig()
	cfg.K = 4
	eng, ft := build(t, cfg)
	ft.Net.SetTracePaths(true)
	h := cfg.K / 2

	coreByNode := make(map[int32][2]int)
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			coreByNode[int32(ft.Cores[j][i].ID())] = [2]int{j, i}
		}
	}

	rng := rand.New(rand.NewSource(21))
	type sent struct {
		pk  *packet.Packet
		key packet.FlowKey
	}
	var sents []sent
	for n := 0; n < 500; n++ {
		srcPod := rng.Intn(cfg.K)
		dstPod := (srcPod + 1 + rng.Intn(cfg.K-1)) % cfg.K
		key := packet.FlowKey{
			Src:     ft.HostAddr(srcPod, rng.Intn(h), rng.Intn(h)),
			Dst:     ft.HostAddr(dstPod, rng.Intn(h), rng.Intn(h)),
			SrcPort: uint16(rng.Intn(65535) + 1), DstPort: uint16(rng.Intn(65535) + 1),
			Proto: packet.ProtoTCP,
		}
		p, e, _ := ft.locateHost(key.Src)
		pk := &packet.Packet{ID: uint64(n + 1), Key: key, Size: 200, Kind: packet.Regular}
		ft.Net.Inject(ft.Hosts[p][e][0], pk, simtime.Time(int64(n)*5000))
		sents = append(sents, sent{pk, key})
	}
	eng.Run()

	for _, s := range sents {
		var traversed [2]int
		found := false
		for _, hop := range s.pk.Hops {
			if ji, ok := coreByNode[hop]; ok {
				traversed, found = ji, true
				break
			}
		}
		if !found {
			t.Fatalf("inter-pod packet %v never crossed a core (hops %v)", s.key, s.pk.Hops)
		}
		j, i, err := ft.ResolveCore(s.key)
		if err != nil {
			t.Fatal(err)
		}
		if [2]int{j, i} != traversed {
			t.Fatalf("ResolveCore(%v) = (%d,%d), ground truth %v", s.key, j, i, traversed)
		}
	}
}

func TestResolveCoreRejectsNonHost(t *testing.T) {
	_, ft := build(t, DefaultConfig())
	key := packet.FlowKey{Src: packet.MustParseAddr("192.168.1.1")}
	if _, _, err := ft.ResolveCore(key); err == nil {
		t.Fatal("non-fat-tree source should error")
	}
	// Switch loopbacks are not host addresses either.
	key.Src = ft.ToRAddr(0, 0)
	if _, _, err := ft.ResolveCore(key); err == nil {
		t.Fatal("ToR loopback should error")
	}
}

func TestECMPSpreadsAcrossCores(t *testing.T) {
	// Many inter-pod flows should collectively traverse all (k/2)^2 cores.
	cfg := DefaultConfig()
	eng, ft := build(t, cfg)
	ft.Net.SetTracePaths(true)
	h := cfg.K / 2

	coreHit := make(map[int32]bool)
	coreIDs := make(map[int32]bool)
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			coreIDs[int32(ft.Cores[j][i].ID())] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	var pks []*packet.Packet
	for n := 0; n < 400; n++ {
		key := packet.FlowKey{
			Src:     ft.HostAddr(0, rng.Intn(h), rng.Intn(h)),
			Dst:     ft.HostAddr(1+rng.Intn(cfg.K-1), rng.Intn(h), rng.Intn(h)),
			SrcPort: uint16(n + 1), DstPort: 80, Proto: packet.ProtoTCP,
		}
		p, e, _ := ft.locateHost(key.Src)
		pk := &packet.Packet{ID: uint64(n + 1), Key: key, Size: 100, Kind: packet.Regular}
		ft.Net.Inject(ft.Hosts[p][e][0], pk, simtime.Time(int64(n)*3000))
		pks = append(pks, pk)
	}
	eng.Run()
	for _, pk := range pks {
		for _, hop := range pk.Hops {
			if coreIDs[hop] {
				coreHit[hop] = true
			}
		}
	}
	if len(coreHit) != h*h {
		t.Fatalf("flows used %d of %d cores: ECMP not spreading", len(coreHit), h*h)
	}
}

func TestMarkingStampsCoreID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MarkAtCores = true
	eng, ft := build(t, cfg)
	ft.Net.SetTracePaths(true)

	key := packet.FlowKey{
		Src: ft.HostAddr(0, 0, 0), Dst: ft.HostAddr(2, 0, 0),
		SrcPort: 777, DstPort: 80, Proto: packet.ProtoTCP,
	}
	pk := &packet.Packet{ID: 1, Key: key, Size: 100, Kind: packet.Regular}
	ft.Net.Inject(ft.Hosts[0][0][0], pk, simtime.Zero)
	eng.Run()

	j, i, ok := ft.CoreForMark(pk.TOS)
	if !ok {
		t.Fatalf("packet unmarked: TOS=%d", pk.TOS)
	}
	if !pk.Traversed(int32(ft.Cores[j][i].ID())) {
		t.Fatalf("mark says core(%d,%d) but hops are %v", j, i, pk.Hops)
	}
}

func TestCoreMarkRoundTrip(t *testing.T) {
	_, ft := build(t, DefaultConfig())
	h := ft.Half()
	seen := map[uint8]bool{}
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			m := ft.CoreMark(j, i)
			if m == 0 {
				t.Fatal("mark 0 is reserved for unmarked")
			}
			if seen[m] {
				t.Fatalf("duplicate mark %d", m)
			}
			seen[m] = true
			gj, gi, ok := ft.CoreForMark(m)
			if !ok || gj != j || gi != i {
				t.Fatalf("CoreForMark(%d) = (%d,%d,%v), want (%d,%d)", m, gj, gi, ok, j, i)
			}
		}
	}
	if _, _, ok := ft.CoreForMark(0); ok {
		t.Fatal("mark 0 should not resolve")
	}
	if _, _, ok := ft.CoreForMark(255); ok {
		t.Fatal("out-of-range mark should not resolve")
	}
}

func TestAddressingHelpers(t *testing.T) {
	_, ft := build(t, DefaultConfig())
	if got := ft.HostAddr(2, 1, 0); got != packet.MustParseAddr("10.2.1.2") {
		t.Fatalf("HostAddr = %v", got)
	}
	if got := ft.ToRAddr(2, 1); got != packet.MustParseAddr("10.2.1.1") {
		t.Fatalf("ToRAddr = %v", got)
	}
	if got := ft.AggAddr(1, 0); got != packet.MustParseAddr("10.1.2.1") {
		t.Fatalf("AggAddr = %v", got)
	}
	if got := ft.CoreAddr(1, 0); got != packet.MustParseAddr("10.4.2.1") {
		t.Fatalf("CoreAddr = %v", got)
	}
	if !ft.ToRSubnet(2, 1).Contains(ft.HostAddr(2, 1, 1)) {
		t.Fatal("host outside its ToR subnet")
	}
	if !ft.PodPrefix(2).Contains(ft.ToRAddr(2, 0)) {
		t.Fatal("ToR outside its pod prefix")
	}
}

func TestPortAccessors(t *testing.T) {
	_, ft := build(t, DefaultConfig())
	// ToR uplink j leads to agg j of the same pod.
	for j := 0; j < ft.Half(); j++ {
		if got := ft.ToRUplink(1, 0, j).Dst(); got != ft.Aggs[1][j] {
			t.Fatalf("ToRUplink(1,0,%d) -> %s", j, got.Name())
		}
	}
	// Agg uplink i leads to core (a, i).
	for i := 0; i < ft.Half(); i++ {
		if got := ft.AggUplink(0, 1, i).Dst(); got != ft.Cores[1][i] {
			t.Fatalf("AggUplink(0,1,%d) -> %s", i, got.Name())
		}
	}
	// Core down port p leads to pod p.
	for p := 0; p < ft.Cfg.K; p++ {
		if got := ft.CoreDownPort(0, 1, p).Dst(); got != ft.Aggs[p][0] {
			t.Fatalf("CoreDownPort(0,1,%d) -> %s", p, got.Name())
		}
	}
	// Host port h leads to host h.
	if got := ft.ToRHostPort(0, 0, 1).Dst(); got != ft.Hosts[0][0][1] {
		t.Fatalf("ToRHostPort -> %s", got.Name())
	}
}

func TestHashersDifferPerSwitch(t *testing.T) {
	_, ft := build(t, DefaultConfig())
	seen := make(map[uint32]bool)
	var switches []*netsim.Node
	for _, row := range append(append(ft.Cores, ft.Aggs...), ft.ToRs...) {
		switches = append(switches, row...)
	}
	for _, n := range switches {
		s := ft.routers[n.ID()].seed
		if seen[s] {
			t.Fatalf("ECMP seed %#x used by two switches", s)
		}
		seen[s] = true
	}
	if want := 4 + 8 + 8; len(seen) != want { // k=4: cores, aggs, ToRs
		t.Fatalf("%d seeded switches, want %d", len(seen), want)
	}
}
