package packet

import (
	"cmp"
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// Proto is an IP protocol number.
type Proto uint8

// Protocol numbers used by the workload generator.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// FlowKey is the 5-tuple identity of a flow. It is a comparable value type:
// use it directly as a map key (the gopacket Flow/Endpoint idiom). All
// per-flow state in this repository — receiver accumulators, ground truth,
// NetFlow records — is keyed by FlowKey.
type FlowKey struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Class returns the flow's class key: the 5-tuple with both ports masked to
// zero, i.e. the host-pair/protocol aggregate a flow folds into when it is
// evicted from a bounded flow table. Flows of the same class share source,
// destination and protocol — the natural per-host-pair aggregation tier
// between individual flows and a whole router.
func (k FlowKey) Class() FlowKey {
	k.SrcPort, k.DstPort = 0, 0
	return k
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Compare orders keys lexicographically by (Src, Dst, SrcPort, DstPort,
// Proto): negative when k sorts first, zero when equal. It is the canonical
// ordering for deterministic per-flow output: result tables, collector
// snapshots and merged aggregates all sort with it.
func (k FlowKey) Compare(o FlowKey) int {
	if c := cmp.Compare(k.Src, o.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(k.Dst, o.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(k.SrcPort, o.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(k.DstPort, o.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(k.Proto, o.Proto)
}

// Less reports whether k sorts before o in Compare's order.
func (k FlowKey) Less(o FlowKey) bool { return k.Compare(o) < 0 }

// FastHash returns a 64-bit FNV-1a hash of the key. It is not the ECMP hash
// (see internal/topo/ecmp.go for those); it exists for sharding, flow-table
// probing and sampling, and is deliberately asymmetric: A->B and B->A hash
// differently.
func (k FlowKey) FastHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(k.Src), 4)
	mix(uint64(k.Dst), 4)
	mix(uint64(k.SrcPort), 2)
	mix(uint64(k.DstPort), 2)
	mix(uint64(k.Proto), 1)
	return h
}

// Kind classifies packets inside the simulator.
type Kind uint8

const (
	// Regular is monitored application traffic: the traffic whose per-flow
	// latency RLIR estimates.
	Regular Kind = iota
	// Reference is an RLI reference packet carrying a sender timestamp.
	Reference
	// Cross is cross traffic: it shares queues with regular traffic but is
	// not monitored (paper §3.2, §4.1).
	Cross
)

func (k Kind) String() string {
	switch k {
	case Regular:
		return "regular"
	case Reference:
		return "reference"
	case Cross:
		return "cross"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MinSize is the smallest frame the simulator will carry (Ethernet minimum).
const MinSize = 64

// MaxSize is the largest frame (standard MTU plus L2 framing).
const MaxSize = 1518

// Packet is one simulated packet. Fields fall into three groups:
//
//   - Wire state: what a real device could see (Key, Size, TOS, Kind, Ref).
//   - Measurement state: SegmentStart, stamped by the RLI sender tap exactly
//     as an egress hardware timestamp would be.
//   - Ground truth: simulator-private bookkeeping (ID, path trace, drop site)
//     used only to evaluate estimation accuracy, never by the instruments
//     themselves — except by the explicitly-labelled oracle demultiplexer.
type Packet struct {
	// ID is a unique, deterministic packet identity assigned at creation.
	ID uint64
	// Key is the 5-tuple.
	Key FlowKey
	// Size is the frame size in bytes, including L2 framing.
	Size int
	// Kind classifies the packet (regular, reference, cross).
	Kind Kind
	// TOS carries the type-of-service byte; under the packet-marking demux
	// strategy, core switches overwrite it with their mark (§3.1, [13]).
	TOS uint8
	// Ref is the reference payload; valid only when Kind == Reference.
	Ref RefPayload

	// SegmentStart is the instant the packet crossed the sender-side
	// measurement point (egress timestamp semantics). Zero means the packet
	// has not crossed a sender tap. For Reference packets this duplicates
	// Ref.Timestamp; for Regular packets it exists only to compute ground
	// truth at the receiver tap.
	SegmentStart simtime.Time

	// Hops is the ground-truth list of node IDs traversed, recorded by the
	// simulator when path tracing is enabled. Up to len(hopBuf) hops it is a
	// slice of the packet's own hopBuf, so a struct copy of a Packet with
	// recorded hops reads the original's buffer until the copy's next
	// RecordHop moves it onto its own: do not copy such a packet and then
	// overwrite or reuse the original. Pass *Packet, as the simulator does.
	Hops []int32
	// hopBuf backs Hops inline: a fat-tree path is 7 nodes, so tracing a
	// packet allocates nothing; longer paths spill to the heap.
	hopBuf [8]int32
}

// RefPayload is the information an RLI reference packet carries on the wire.
type RefPayload struct {
	// Sender identifies the RLI sender instance; receivers use it to
	// demultiplex reference streams (§3.1 upstream multiplexing).
	Sender uint32
	// Seq is a per-sender sequence number (loss detection).
	Seq uint32
	// Timestamp is the sender's hardware transmit timestamp.
	Timestamp simtime.Time
}

// Delay returns the one-way delay of a reference packet received at the
// given instant, as computed by the RLI receiver's (synchronized) clock.
func (r RefPayload) Delay(receivedAt simtime.Time) time.Duration {
	return receivedAt.Sub(r.Timestamp)
}

// RecordHop appends a node to the ground-truth path trace.
func (p *Packet) RecordHop(node int32) {
	n := len(p.Hops)
	if n >= len(p.hopBuf) {
		p.Hops = append(p.Hops, node)
		return
	}
	if n > 0 && &p.Hops[0] != &p.hopBuf[0] {
		// Hops was assigned by the caller, or p is a struct copy whose Hops
		// still points into the original: bring the trace home first.
		copy(p.hopBuf[:], p.Hops)
	}
	p.hopBuf[n] = node
	p.Hops = p.hopBuf[:n+1]
}

// Traversed reports whether ground-truth tracing saw the packet pass node.
func (p *Packet) Traversed(node int32) bool {
	for _, h := range p.Hops {
		if h == node {
			return true
		}
	}
	return false
}

// Slab hands out Packets carved from chunked backing arrays. A replayed
// workload's packets all live until the simulation ends anyway, so chunking
// trades one allocation per packet for one per few thousand, with better
// locality. The zero value is ready to use.
type Slab struct{ free []Packet }

// New returns a zero Packet from the slab.
func (s *Slab) New() *Packet {
	if len(s.free) == 0 {
		s.free = make([]Packet, 4096)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%d %s %s %dB}", p.ID, p.Kind, p.Key, p.Size)
}
