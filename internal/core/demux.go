package core

import (
	"fmt"

	"github.com/netmeasure/rlir/internal/lpm"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
)

// Demux attributes a regular packet to the RLI sender whose reference
// stream traversed the same path — the heart of RLIR's traffic
// multiplexing solution (§3.1). Implementations must be deterministic.
type Demux interface {
	Classify(p *packet.Packet) (SenderID, bool)
	Name() string
}

// SingleDemux attributes everything to one sender: correct for a tandem
// segment with a single upstream sender, and the deliberately wrong
// baseline in multiplexed topologies (the paper: "otherwise per-flow
// latency estimates at the receivers can be totally wrong").
type SingleDemux struct {
	ID SenderID
}

// Classify implements Demux.
func (d SingleDemux) Classify(*packet.Packet) (SenderID, bool) { return d.ID, true }

// Name implements Demux.
func (d SingleDemux) Name() string { return fmt.Sprintf("single(%d)", d.ID) }

// PrefixDemux classifies by longest-prefix match on the packet's source
// address: the paper's upstream solution ("the origin of regular packets
// can be easily identified by IP address block assigned for hosts in each
// ToR switch. Thus, upstream RLI receivers need to perform simple IP prefix
// matching").
type PrefixDemux struct {
	table *lpm.Table[SenderID]
}

// NewPrefixDemux builds an empty prefix demultiplexer.
func NewPrefixDemux() *PrefixDemux {
	return &PrefixDemux{table: lpm.New[SenderID]()}
}

// Add maps a source prefix to a sender.
func (d *PrefixDemux) Add(p packet.Prefix, id SenderID) *PrefixDemux {
	d.table.Insert(p, id)
	return d
}

// Classify implements Demux.
func (d *PrefixDemux) Classify(p *packet.Packet) (SenderID, bool) {
	return d.table.Lookup(p.Key.Src)
}

// Name implements Demux.
func (d *PrefixDemux) Name() string { return fmt.Sprintf("prefix(%d)", d.table.Len()) }

// MarkDemux classifies by the ToS byte stamped by intermediate routers: the
// paper's packet-marking downstream option ("the type-of-service (ToS)
// field in the IP header could be used to mark packets", §3.1, citing IP
// traceback [13]).
type MarkDemux struct {
	bySenderMark map[uint8]SenderID
}

// NewMarkDemux builds an empty mark demultiplexer.
func NewMarkDemux() *MarkDemux {
	return &MarkDemux{bySenderMark: make(map[uint8]SenderID)}
}

// Add maps a ToS mark to a sender.
func (d *MarkDemux) Add(mark uint8, id SenderID) *MarkDemux {
	d.bySenderMark[mark] = id
	return d
}

// Classify implements Demux.
func (d *MarkDemux) Classify(p *packet.Packet) (SenderID, bool) {
	id, ok := d.bySenderMark[p.TOS]
	return id, ok
}

// Name implements Demux.
func (d *MarkDemux) Name() string { return fmt.Sprintf("mark(%d)", len(d.bySenderMark)) }

// FuncDemux adapts an arbitrary resolution function; the reverse-ECMP demux
// is built from topo.FatTree.ResolveCore with this adapter.
type FuncDemux struct {
	F     func(*packet.Packet) (SenderID, bool)
	Label string
}

// Classify implements Demux.
func (d FuncDemux) Classify(p *packet.Packet) (SenderID, bool) { return d.F(p) }

// Name implements Demux.
func (d FuncDemux) Name() string {
	if d.Label == "" {
		return "func"
	}
	return d.Label
}

// OracleDemux classifies using the simulator's ground-truth path trace: the
// upper bound any real demux strategy can reach. It is a validation tool,
// clearly not implementable in a deployment.
type OracleDemux struct {
	// byNode is indexed by node ID: a slice, since it is probed once per hop
	// of every packet a receiver sees.
	byNode []oracleEntry
	nodes  int // nodes added
}

type oracleEntry struct {
	id    SenderID
	added bool
}

// NewOracleDemux builds an empty oracle.
func NewOracleDemux() *OracleDemux { return &OracleDemux{} }

// Add maps "the packet traversed node" to a sender.
func (d *OracleDemux) Add(node netsim.NodeID, id SenderID) *OracleDemux {
	if node < 0 {
		panic(fmt.Sprintf("core: oracle demux given node %d", node))
	}
	if int(node) >= len(d.byNode) {
		d.byNode = append(d.byNode, make([]oracleEntry, int(node)+1-len(d.byNode))...)
	}
	if !d.byNode[node].added {
		d.nodes++
	}
	d.byNode[node] = oracleEntry{id: id, added: true}
	return d
}

// Classify implements Demux.
func (d *OracleDemux) Classify(p *packet.Packet) (SenderID, bool) {
	for _, hop := range p.Hops {
		if uint(hop) < uint(len(d.byNode)) && d.byNode[hop].added {
			return d.byNode[hop].id, true
		}
	}
	return 0, false
}

// Name implements Demux.
func (d *OracleDemux) Name() string { return fmt.Sprintf("oracle(%d)", d.nodes) }
