// Package topo builds data-center topologies on the netsim substrate.
//
// The centerpiece is the k-ary fat-tree of Figure 1 (ToR, aggregation and
// core layers; the paper calls the middle layer "edge") with the standard
// Al-Fares addressing plan, per-switch ECMP routing, deterministic routes to
// switch loopbacks (reference packets are addressed to receiver instances),
// ToS packet marking at cores, and the reverse-ECMP path resolver that RLIR
// receivers use for downstream demultiplexing (§3.1).
package topo

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/lpm"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Config parameterizes a fat-tree build.
type Config struct {
	// K is the fat-tree arity: K pods, K/2 ToR + K/2 aggregation switches
	// per pod, (K/2)^2 cores, K/2 hosts per ToR. Must be even and >= 2.
	K int
	// LinkBps is the rate of every link.
	LinkBps float64
	// Propagation is the per-link propagation delay.
	Propagation time.Duration
	// QueueBytes bounds every switch output queue (0 = unbounded).
	QueueBytes int
	// ProcDelay is the per-switch packet processing delay.
	ProcDelay time.Duration
	// MarkAtCores makes core switches overwrite the ToS byte of transiting
	// packets with their core index + 1 — the packet-marking downstream
	// demux option (§3.1, [13]).
	MarkAtCores bool
}

// DefaultConfig returns a small k=4 fat-tree at 1 Gbps.
func DefaultConfig() Config {
	return Config{
		K:           4,
		LinkBps:     1e9,
		Propagation: time.Microsecond,
		QueueBytes:  256 << 10,
		ProcDelay:   500 * time.Nanosecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 2 || c.K%2 != 0 {
		return fmt.Errorf("topo: K must be even and >= 2, got %d", c.K)
	}
	if c.K > 254 {
		return fmt.Errorf("topo: K=%d exceeds the 8-bit address plan", c.K)
	}
	if c.LinkBps <= 0 {
		return fmt.Errorf("topo: non-positive link rate")
	}
	return nil
}

// FatTree is a built fat-tree: all nodes, addressing and routing installed.
type FatTree struct {
	Cfg Config
	Net *netsim.Network

	// Cores[j][i] is core switch i of group j; group j is reachable via
	// aggregation switch j in every pod. j,i in [0, K/2).
	Cores [][]*netsim.Node
	// Aggs[p][a] is aggregation switch a of pod p.
	Aggs [][]*netsim.Node
	// ToRs[p][e] is ToR (edge) switch e of pod p.
	ToRs [][]*netsim.Node
	// Hosts[p][e][h] is host h under ToR e of pod p.
	Hosts [][][]*netsim.Node

	// Indexed by NodeID. routers[n] is switch n's forwarding state (nil for
	// a host). torUp[tor][j] is the ToR port index leading to agg j;
	// aggUp[agg][i] the agg port index to core (group, i).
	routers []*router
	torUp   [][]int
	aggUp   [][]int
}

// Half returns K/2.
func (ft *FatTree) Half() int { return ft.Cfg.K / 2 }

// HostAddr returns the address of host h under ToR e of pod p (Al-Fares:
// 10.pod.tor.2+h).
func (ft *FatTree) HostAddr(p, e, h int) packet.Addr {
	return packet.AddrFrom4(10, byte(p), byte(e), byte(2+h))
}

// ToRAddr returns the loopback of ToR e in pod p (10.pod.tor.1).
func (ft *FatTree) ToRAddr(p, e int) packet.Addr {
	return packet.AddrFrom4(10, byte(p), byte(e), 1)
}

// AggAddr returns the loopback of aggregation switch a in pod p
// (10.pod.(K/2+a).1).
func (ft *FatTree) AggAddr(p, a int) packet.Addr {
	return packet.AddrFrom4(10, byte(p), byte(ft.Half()+a), 1)
}

// CoreAddr returns the loopback of core (j, i) (10.K.j+1.i+1).
func (ft *FatTree) CoreAddr(j, i int) packet.Addr {
	return packet.AddrFrom4(10, byte(ft.Cfg.K), byte(j+1), byte(i+1))
}

// ToRSubnet returns the host prefix of ToR e in pod p (10.p.e.0/24).
func (ft *FatTree) ToRSubnet(p, e int) packet.Prefix {
	return packet.Prefix{Addr: packet.AddrFrom4(10, byte(p), byte(e), 0), Len: 24}
}

// PodPrefix returns pod p's prefix (10.p.0.0/16).
func (ft *FatTree) PodPrefix(p int) packet.Prefix {
	return packet.Prefix{Addr: packet.AddrFrom4(10, byte(p), 0, 0), Len: 16}
}

// ToRUplink returns the ToR's port leading to aggregation switch j.
func (ft *FatTree) ToRUplink(p, e, j int) *netsim.Port {
	tor := ft.ToRs[p][e]
	return tor.Port(ft.torUp[tor.ID()][j])
}

// ToRHostPort returns the ToR's port leading to host h.
func (ft *FatTree) ToRHostPort(p, e, h int) *netsim.Port {
	// Host ports follow the K/2 uplinks in creation order.
	return ft.ToRs[p][e].Port(ft.Half() + h)
}

// AggUplink returns the aggregation switch's port to core (its group, i).
func (ft *FatTree) AggUplink(p, a, i int) *netsim.Port {
	agg := ft.Aggs[p][a]
	return agg.Port(ft.aggUp[agg.ID()][i])
}

// CoreDownPort returns core (j,i)'s port toward pod p.
func (ft *FatTree) CoreDownPort(j, i, p int) *netsim.Port {
	return ft.Cores[j][i].Port(p)
}

// Build constructs the fat-tree on a fresh Network bound to eng.
func Build(cfg Config, nw *netsim.Network) (*FatTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ft := &FatTree{Cfg: cfg, Net: nw}
	k, h := cfg.K, cfg.K/2
	link := netsim.LinkConfig{RateBps: cfg.LinkBps, Propagation: cfg.Propagation, QueueBytes: cfg.QueueBytes}
	sw := netsim.NodeConfig{ProcDelay: cfg.ProcDelay}

	// Nodes.
	ft.Cores = make([][]*netsim.Node, h)
	for j := 0; j < h; j++ {
		ft.Cores[j] = make([]*netsim.Node, h)
		for i := 0; i < h; i++ {
			c := sw
			c.Name = fmt.Sprintf("core%d.%d", j, i)
			ft.Cores[j][i] = nw.AddNode(c)
		}
	}
	ft.Aggs = make([][]*netsim.Node, k)
	ft.ToRs = make([][]*netsim.Node, k)
	ft.Hosts = make([][][]*netsim.Node, k)
	for p := 0; p < k; p++ {
		ft.Aggs[p] = make([]*netsim.Node, h)
		ft.ToRs[p] = make([]*netsim.Node, h)
		ft.Hosts[p] = make([][]*netsim.Node, h)
		for a := 0; a < h; a++ {
			c := sw
			c.Name = fmt.Sprintf("agg%d.%d", p, a)
			ft.Aggs[p][a] = nw.AddNode(c)
		}
		for e := 0; e < h; e++ {
			c := sw
			c.Name = fmt.Sprintf("tor%d.%d", p, e)
			ft.ToRs[p][e] = nw.AddNode(c)
			ft.Hosts[p][e] = make([]*netsim.Node, h)
			for hh := 0; hh < h; hh++ {
				ft.Hosts[p][e][hh] = nw.AddNode(netsim.NodeConfig{
					Name: fmt.Sprintf("host%d.%d.%d", p, e, hh),
					Addr: ft.HostAddr(p, e, hh),
				})
			}
		}
	}

	n := nw.Nodes()
	ft.routers, ft.torUp, ft.aggUp = make([]*router, n), make([][]int, n), make([][]int, n)

	// Links. Port creation order matters: routing below records indices.
	// Core: port p -> pod p's agg of this core's group.
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			for p := 0; p < k; p++ {
				nw.Connect(ft.Cores[j][i], ft.Aggs[p][j], link)
			}
		}
	}
	// Agg: ports 0..h-1 up to cores of its group, then h..k-1 down to ToRs.
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			agg := ft.Aggs[p][a]
			up := make([]int, h)
			for i := 0; i < h; i++ {
				up[i] = len(agg.Ports())
				nw.Connect(agg, ft.Cores[a][i], link)
			}
			ft.aggUp[agg.ID()] = up
			for e := 0; e < h; e++ {
				nw.Connect(agg, ft.ToRs[p][e], link)
			}
		}
	}
	// ToR: ports 0..h-1 up to aggs, then h..k-1 down to hosts.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			tor := ft.ToRs[p][e]
			up := make([]int, h)
			for a := 0; a < h; a++ {
				up[a] = len(tor.Ports())
				nw.Connect(tor, ft.Aggs[p][a], link)
			}
			ft.torUp[tor.ID()] = up
			for hh := 0; hh < h; hh++ {
				nw.Connect(tor, ft.Hosts[p][e][hh], link)
				// Host's single uplink back to its ToR.
				nw.Connect(ft.Hosts[p][e][hh], tor, link)
			}
		}
	}

	ft.installRouting()
	if cfg.MarkAtCores {
		ft.installMarking()
	}
	return ft, nil
}

// route is an LPM value: candidate output ports (empty = deliver locally).
type route []int

// router is one switch's forwarding state. Its LPM table is the one routing
// spec; hosts is that table compiled for host destinations, indexed by
// hostIndex of LocateHost's coordinates, so forwarding to a host reads one
// entry instead of walking up to four trie levels.
type router struct {
	ft    *FatTree
	tbl   *lpm.Table[route]
	hosts []route
	seed  uint32 // keys the switch's ECMP hash (ecmp.go); distinct per switch
}

// candidates returns the ports a packet for dst may leave by (empty =
// deliver locally, as for an address no prefix covers).
func (r *router) candidates(dst packet.Addr) route {
	if p, e, h, ok := r.ft.LocateHost(dst); ok {
		return r.hosts[r.ft.hostIndex(p, e, h)]
	}
	ports, _ := r.tbl.Lookup(dst)
	return ports
}

// forward is the switch's ForwardFunc: one of the candidate ports by ECMP.
// Unroutable packets are delivered locally (and thus visible via the node's
// Delivered counter) rather than crashing the simulation.
func (r *router) forward(_ *netsim.Node, p *packet.Packet) int {
	ports := r.candidates(p.Key.Dst)
	if len(ports) == 0 {
		return -1
	}
	return ports[ecmpSelect(r.seed, p.Key, len(ports))]
}

// hostIndex is the dense index of host h under ToR e of pod p.
func (ft *FatTree) hostIndex(p, e, h int) int { return (p*ft.Half()+e)*ft.Half() + h }

// install compiles sw's LPM table into its host routes and makes it the
// switch's forwarding state.
func (ft *FatTree) install(sw *netsim.Node, tbl *lpm.Table[route]) {
	k, h := ft.Cfg.K, ft.Half()
	base := uint32(0x5EED)
	r := &router{
		ft:    ft,
		tbl:   tbl,
		hosts: make([]route, k*h*h),
		seed:  base*2654435761 + uint32(sw.ID())*40503 + 0x9E37, // distinct, deterministic per switch
	}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for hh := 0; hh < h; hh++ {
				r.hosts[ft.hostIndex(p, e, hh)], _ = tbl.Lookup(ft.HostAddr(p, e, hh))
			}
		}
	}
	ft.routers[sw.ID()] = r
	sw.SetForward(r.forward)
}

// installRouting builds per-switch LPM tables and installs their routers.
// A host owns its address (netsim.NodeConfig.Addr), so it forwards
// everything else up its one link.
func (ft *FatTree) installRouting() {
	k, h := ft.Cfg.K, ft.Half()

	// Cores: pure prefix routing down to pods, loopback local.
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			tbl := lpm.New[route]()
			for p := 0; p < k; p++ {
				tbl.Insert(ft.PodPrefix(p), route{p})
			}
			tbl.Insert(packet.Prefix{Addr: ft.CoreAddr(j, i), Len: 32}, route{})
			ft.install(ft.Cores[j][i], tbl)
		}
	}

	// Aggs: own pod's ToR subnets down; core loopbacks of its group pinned
	// up; default ECMP up; own loopback local.
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			agg := ft.Aggs[p][a]
			tbl := lpm.New[route]()
			up := ft.aggUp[agg.ID()]
			for e := 0; e < h; e++ {
				tbl.Insert(ft.ToRSubnet(p, e), route{h + e})
			}
			// ToR loopbacks live inside ToRSubnet -> same downlink.
			for i := 0; i < h; i++ {
				tbl.Insert(packet.Prefix{Addr: ft.CoreAddr(a, i), Len: 32}, route{up[i]})
			}
			tbl.Insert(packet.Prefix{Addr: ft.AggAddr(p, a), Len: 32}, route{})
			def := make(route, h)
			copy(def, up)
			tbl.Insert(packet.Prefix{Len: 0}, def)
			ft.install(agg, tbl)
		}
	}

	// ToRs: hosts down; core loopbacks pinned via the matching agg; agg
	// loopbacks pinned; default ECMP up; own loopback local.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			tor := ft.ToRs[p][e]
			tbl := lpm.New[route]()
			up := ft.torUp[tor.ID()]
			for hh := 0; hh < h; hh++ {
				tbl.Insert(packet.Prefix{Addr: ft.HostAddr(p, e, hh), Len: 32}, route{h + hh})
			}
			for j := 0; j < h; j++ {
				for i := 0; i < h; i++ {
					tbl.Insert(packet.Prefix{Addr: ft.CoreAddr(j, i), Len: 32}, route{up[j]})
				}
				tbl.Insert(packet.Prefix{Addr: ft.AggAddr(p, j), Len: 32}, route{up[j]})
			}
			tbl.Insert(packet.Prefix{Addr: ft.ToRAddr(p, e), Len: 32}, route{})
			def := make(route, h)
			copy(def, up)
			tbl.Insert(packet.Prefix{Len: 0}, def)
			ft.install(tor, tbl)
		}
	}

	uplink := func(*netsim.Node, *packet.Packet) int { return 0 }
	for _, pod := range ft.Hosts {
		for _, tor := range pod {
			for _, host := range tor {
				host.SetForward(uplink)
			}
		}
	}
}

// installMarking makes each core overwrite the ToS byte of transiting
// packets with its mark (core group*K/2 + index + 1; 0 means unmarked).
func (ft *FatTree) installMarking() {
	h := ft.Half()
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			mark := ft.CoreMark(j, i)
			ft.Cores[j][i].OnReceive(func(p *packet.Packet, _ simtime.Time) {
				p.TOS = mark
			})
		}
	}
}

// CoreMark returns the ToS mark core (j,i) stamps: a dense nonzero ID.
func (ft *FatTree) CoreMark(j, i int) uint8 {
	return uint8(j*ft.Half() + i + 1)
}

// CoreForMark inverts CoreMark; ok is false for 0 or out-of-range marks.
func (ft *FatTree) CoreForMark(m uint8) (j, i int, ok bool) {
	if m == 0 || int(m) > ft.Half()*ft.Half() {
		return 0, 0, false
	}
	v := int(m) - 1
	return v / ft.Half(), v % ft.Half(), true
}

// ResolveCore performs the reverse-ECMP computation (§3.1): given a flow
// key whose source lies in pod p, it replays the source ToR's hash (which
// aggregation switch, hence which core group) and that aggregation switch's
// hash (which core within the group), returning the core's (j, i). It is
// exactly the computation an RLIR receiver performs from topology knowledge
// plus vendor-revealed hash functions.
func (ft *FatTree) ResolveCore(key packet.FlowKey) (j, i int, err error) {
	p, e, ok := ft.locateHost(key.Src)
	if !ok {
		return 0, 0, fmt.Errorf("topo: source %v is not a fat-tree host address", key.Src)
	}
	tor := ft.ToRs[p][e]
	h := ft.Half()
	j = ecmpSelect(ft.routers[tor.ID()].seed, key, h)
	agg := ft.Aggs[p][j]
	i = ecmpSelect(ft.routers[agg.ID()].seed, key, h)
	return j, i, nil
}

// LocateHost maps a host address back to its (pod, tor, host) coordinates.
// ok is false for any address outside the Al-Fares host plan (switch
// loopbacks, foreign prefixes). It is the inverse of HostAddr and the one
// place the address layout is decoded — workload remappers (the scenario
// engine) depend on it instead of re-deriving octet arithmetic.
func (ft *FatTree) LocateHost(a packet.Addr) (p, e, h int, ok bool) {
	o1, o2, o3, o4 := a.Octets()
	half := ft.Cfg.K / 2
	if o1 != 10 || int(o2) >= ft.Cfg.K || int(o3) >= half || uint(o4-2) >= uint(half) {
		return 0, 0, 0, false
	}
	return int(o2), int(o3), int(o4) - 2, true
}

// locateHost is LocateHost without the host index.
func (ft *FatTree) locateHost(a packet.Addr) (p, e int, ok bool) {
	p, e, _, ok = ft.LocateHost(a)
	return p, e, ok
}
