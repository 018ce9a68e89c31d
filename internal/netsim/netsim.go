package netsim

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// NodeID identifies a node within one Network. IDs are dense and start at 0.
type NodeID int32

// TapFunc observes a packet at an instrumentation point. Taps run
// synchronously inside the event that triggered them and are handed the
// instant they observe; for an ingress tap that is the packet's arrival,
// which precedes the event's own instant by the node's processing delay.
// The packet pointer is live simulation state, so taps must not retain it
// past the call unless they copy what they need.
type TapFunc func(p *packet.Packet, now simtime.Time)

// ForwardFunc chooses the output port index for a packet arriving at a node,
// or a negative value to deliver the packet locally (the node is the
// packet's destination). It runs after the node's processing delay.
type ForwardFunc func(n *Node, p *packet.Packet) int

// DelayFunc returns an extra per-packet delay a node adds on top of its
// configured processing delay; now is the packet's arrival instant. It must
// be a pure function of the packet and that instant, so what a node does to
// a packet never depends on which other packets it saw first. Scenario fault
// injection uses it for the hop-delay fault (every packet arriving in a
// window) and the compromised-switch mode — a router that games measurement
// by delaying only the packets it predicts won't be sampled.
type DelayFunc func(p *packet.Packet, now simtime.Time) time.Duration

// EmulateFunc drives one link from recorded behaviour: for a packet about to
// propagate it returns extra one-way delay to add on top of the configured
// propagation, and whether the link drops the packet outright. Like
// DelayFunc it must be pure per (packet, instant). Trace-driven link
// emulation (internal/trace.LinkTrace) plugs in here.
type EmulateFunc func(p *packet.Packet, now simtime.Time) (extra time.Duration, drop bool)

// RateFunc returns a link's line rate in bits per second for a packet
// starting transmission at now. Like DelayFunc it must be a pure function of
// that instant; scenario fault injection uses it for the link-degrade fault
// (a reduced rate for every transmission starting in a window).
type RateFunc func(now simtime.Time) float64

// Network is a collection of nodes, ports and links sharing one event
// engine. Create with New.
type Network struct {
	eng        *eventsim.Engine
	nodes      []*Node
	tracePaths bool
	nextPktID  uint64

	// Typed event kinds for the per-packet hot path. A packet costs one
	// event per hop: its arrival at a node, keyed at arrival + the node's
	// processing delay, which runs the ingress work for the arrival instant
	// and forwards inline. The port schedules it when the packet starts
	// transmission. A packet that queues behind another adds a txNext at
	// the port, and a positive selective delay a dispatch. Each payload
	// lives by value in the heap slot, so forwarding a packet schedules no
	// closures and allocates nothing.
	kArrive   eventsim.Kind // a: *Node, b: *packet.Packet — arrival + proc: ingress and forwarding
	kDispatch eventsim.Kind // a: *Node, b: *packet.Packet — forwarding after a selective delay
	kTxNext   eventsim.Kind // a: *Port — the wire is free and a packet is queued
}

// New returns an empty network on the given engine.
func New(eng *eventsim.Engine) *Network {
	nw := &Network{eng: eng}
	nw.kArrive = eng.RegisterKind(func(a, b any) { a.(*Node).arrive(b.(*packet.Packet)) })
	nw.kDispatch = eng.RegisterKind(func(a, b any) { a.(*Node).dispatch(b.(*packet.Packet)) })
	nw.kTxNext = eng.RegisterKind(func(a, _ any) { a.(*Port).startTx() })
	return nw
}

// Engine returns the event engine the network runs on.
func (nw *Network) Engine() *eventsim.Engine { return nw.eng }

// SetTracePaths enables ground-truth path recording: every node appends its
// ID to Packet.Hops on ingress. Used by validation tests and the oracle
// demultiplexer only.
func (nw *Network) SetTracePaths(on bool) { nw.tracePaths = on }

// NewPacketID returns the next ID of the network-wide dense counter: 1, 2, …
// in call order. Workloads stamp injected packets from it; packets a node
// originates mid-run use Node.NewPacketID.
func (nw *Network) NewPacketID() uint64 {
	nw.nextPktID++
	return nw.nextPktID
}

// NodeConfig configures a node.
type NodeConfig struct {
	// Name is a human-readable label used in errors and dumps.
	Name string
	// ProcDelay is the per-packet processing (lookup) delay applied between
	// ingress and the forwarding decision, fixed for the node's lifetime: a
	// packet's one arrival event is keyed at arrival + ProcDelay.
	ProcDelay time.Duration
}

// AddNode creates a node. Nodes forward nothing until SetForward is called;
// until then every packet is delivered locally (sink behaviour).
func (nw *Network) AddNode(cfg NodeConfig) *Node {
	if cfg.ProcDelay < 0 {
		panic(fmt.Sprintf("netsim: node %q has negative processing delay", cfg.Name))
	}
	n := &Node{
		net:  nw,
		id:   NodeID(len(nw.nodes)),
		name: cfg.Name,
		proc: cfg.ProcDelay,
		forward: func(*Node, *packet.Packet) int {
			return -1
		},
	}
	if n.name == "" {
		n.name = fmt.Sprintf("node%d", n.id)
	}
	nw.nodes = append(nw.nodes, n)
	return n
}

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node {
	return nw.nodes[id]
}

// Nodes returns the number of nodes.
func (nw *Network) Nodes() int { return len(nw.nodes) }

// Inject schedules p to arrive at node n's ingress at instant at. It is how
// workloads enter the network.
func (nw *Network) Inject(n *Node, p *packet.Packet, at simtime.Time) {
	nw.eng.AtKind(at.Add(n.proc), nw.kArrive, n, p)
}

// LinkConfig configures a unidirectional link and the output queue feeding
// it.
type LinkConfig struct {
	// RateBps is the line rate in bits per second. Required.
	RateBps float64
	// Propagation is the one-way propagation delay.
	Propagation time.Duration
	// QueueBytes bounds the output queue in bytes, excluding the packet in
	// transmission. Zero means unbounded (no drops).
	QueueBytes int
}

// Connect attaches a new output port on from, linked to to's ingress, and
// returns the port. Links are unidirectional; call twice for a duplex pair.
func (nw *Network) Connect(from, to *Node, cfg LinkConfig) *Port {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s->%s has non-positive rate", from.name, to.name))
	}
	p := &Port{
		node:  from,
		index: len(from.ports),
		dst:   to,
		cfg:   cfg,
	}
	from.ports = append(from.ports, p)
	return p
}

// Node is a switch, router or host.
type Node struct {
	net     *Network
	id      NodeID
	name    string
	proc    time.Duration
	extra   DelayFunc
	ports   []*Port
	forward ForwardFunc
	refID   uint64 // packets this node has originated (NewPacketID)

	onReceive []TapFunc
	onDeliver []TapFunc

	// Counters.
	received  uint64
	delivered uint64
}

// ID returns the node's dense identifier.
func (n *Node) ID() NodeID { return n.id }

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// NewPacketID returns a fresh ID for a packet this node originates (an RLI
// sender's reference packets): the node index in the high bits, the node's
// own count below. An ID therefore depends only on how many packets this
// node has minted — not on what other nodes did first — and cannot collide
// with the dense network-wide IDs injected workloads carry; the link
// emulator's keyed drop decision reads it. Consumers never decode IDs;
// reference-packet demux keys on (sender, timestamp).
func (n *Node) NewPacketID() uint64 {
	n.refID++
	return uint64(n.id+1)<<40 | n.refID
}

// Name returns the node's label.
func (n *Node) Name() string { return n.name }

// Ports returns the node's output ports in creation order.
func (n *Node) Ports() []*Port { return n.ports }

// Port returns output port i.
func (n *Node) Port(i int) *Port { return n.ports[i] }

// SetForward installs the forwarding function.
func (n *Node) SetForward(f ForwardFunc) { n.forward = f }

// ProcDelay returns the node's per-packet processing delay.
func (n *Node) ProcDelay() time.Duration { return n.proc }

// SetSelectiveDelay installs (or with nil removes) a per-packet extra-delay
// hook evaluated with the arrival instant, added on top of ProcDelay. It is
// the one way to vary a node's delay: the hop-delay fault's window and the
// compromised switch, which delays only traffic it predicts is unmeasured,
// are both terms of it. A negative return panics.
func (n *Node) SetSelectiveDelay(f DelayFunc) { n.extra = f }

// OnReceive registers an ingress tap. Ingress taps run at arrival + proc,
// in the packet's one arrival event, and see the arrival instant; what they
// write to the packet is visible to forwarding and egress. Receiver
// instruments placed "at" a router attach here.
func (n *Node) OnReceive(t TapFunc) { n.onReceive = append(n.onReceive, t) }

// OnDeliver registers a tap run when a packet terminates at this node.
func (n *Node) OnDeliver(t TapFunc) { n.onDeliver = append(n.onDeliver, t) }

// Received returns the count of packets that entered this node.
func (n *Node) Received() uint64 { return n.received }

// Delivered returns the count of packets locally delivered at this node.
func (n *Node) Delivered() uint64 { return n.delivered }

// arrive handles a packet's arrival event, which fires proc after the packet
// reached the node: ingress (path trace, count, taps and the selective-delay
// hook, all at the arrival instant), then forwarding inline. Only a positive
// selective delay defers forwarding to a dispatch event.
func (n *Node) arrive(p *packet.Packet) {
	now := n.net.eng.Now().Add(-n.proc)
	n.received++
	if n.net.tracePaths {
		p.RecordHop(int32(n.id))
	}
	for _, t := range n.onReceive {
		t(p, now)
	}
	if n.extra != nil {
		if e := n.extra(p, now); e > 0 {
			n.net.eng.AfterKind(e, n.net.kDispatch, n, p)
			return
		} else if e < 0 {
			panic("netsim: negative selective delay")
		}
	}
	n.dispatch(p)
}

// dispatch applies the forwarding decision after the processing delay.
func (n *Node) dispatch(p *packet.Packet) {
	out := n.forward(n, p)
	if out < 0 {
		n.deliver(p)
		return
	}
	if out >= len(n.ports) {
		panic(fmt.Sprintf("netsim: %s forwarded %v to nonexistent port %d", n.name, p, out))
	}
	n.ports[out].Enqueue(p)
}

func (n *Node) deliver(p *packet.Packet) {
	now := n.net.eng.Now()
	n.delivered++
	for _, t := range n.onDeliver {
		t(p, now)
	}
}

// PortCounters are the cumulative statistics of one port.
type PortCounters struct {
	Enqueued   uint64
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64
	DropBytes  uint64
	EmuDrops   uint64 // packets the link emulator dropped on the wire, counted at tx start
	QueueBytes int    // instantaneous backlog, excluding packet in service
	QueueLen   int
}

// Port is an output port: a FIFO drop-tail queue draining onto a
// unidirectional link.
type Port struct {
	node  *Node
	index int
	dst   *Node
	cfg   LinkConfig

	queue  fifo
	qBytes int
	free   simtime.Time // end of the latest transmission
	armed  bool         // the queue head has a server: a pending txNext, or startTx is running
	rate   RateFunc
	emu    EmulateFunc

	onTxStart []TapFunc
	onDrop    []TapFunc

	ctr PortCounters
}

// Node returns the owning node.
func (pt *Port) Node() *Node { return pt.node }

// Index returns the port's index on its node.
func (pt *Port) Index() int { return pt.index }

// Dst returns the node at the far end of the link.
func (pt *Port) Dst() *Node { return pt.dst }

// Rate returns the configured line rate in bits per second.
func (pt *Port) Rate() float64 { return pt.cfg.RateBps }

// rateAt returns the line rate in effect for a transmission starting at now.
func (pt *Port) rateAt(now simtime.Time) float64 {
	if pt.rate == nil {
		return pt.cfg.RateBps
	}
	return pt.rate(now)
}

// Propagation returns the link's one-way propagation delay.
func (pt *Port) Propagation() time.Duration { return pt.cfg.Propagation }

// SetRate installs (or with nil removes) a rate hook evaluated when a packet
// starts transmission: the packet serializes at the rate the hook returns for
// that instant instead of the configured one, and keeps it to the end of its
// transmission — the way a renegotiated or degraded physical link behaves. A
// non-positive rate panics (simtime.TxTime).
func (pt *Port) SetRate(f RateFunc) { pt.rate = f }

// SetPropagation changes the link's propagation delay for transmissions
// starting after the call. Experiments use it at build time to model
// heterogeneous path lengths.
func (pt *Port) SetPropagation(d time.Duration) {
	if d < 0 {
		panic("netsim: negative propagation delay")
	}
	pt.cfg.Propagation = d
}

// SetEmulator installs (or with nil removes) a link emulator, asked at tx
// start with the instant the packet's transmission ends: extra delay is
// added on top of the configured propagation (never subtracted) and drops
// discard the packet on the wire, counted in Counters().EmuDrops.
// A negative extra delay panics.
func (pt *Port) SetEmulator(f EmulateFunc) { pt.emu = f }

// Counters returns a snapshot of the port's statistics.
func (pt *Port) Counters() PortCounters {
	c := pt.ctr
	c.QueueBytes = pt.qBytes
	c.QueueLen = pt.queue.len()
	return c
}

// OnTxStart registers a tap run at the instant a packet begins transmission
// on the wire — the point where egress hardware timestamping happens, and
// where both RLI sender and receiver instruments attach.
func (pt *Port) OnTxStart(t TapFunc) { pt.onTxStart = append(pt.onTxStart, t) }

// OnDrop registers a tap run when the queue rejects a packet.
func (pt *Port) OnDrop(t TapFunc) { pt.onDrop = append(pt.onDrop, t) }

// Enqueue places p in the output queue, dropping it if the byte bound would
// be exceeded. Instruments may call this to inject packets (reference
// packets enter the network here).
func (pt *Port) Enqueue(p *packet.Packet) {
	if p.Size <= 0 {
		panic(fmt.Sprintf("netsim: enqueue of zero-size packet %v", p))
	}
	if pt.cfg.QueueBytes > 0 && pt.qBytes+p.Size > pt.cfg.QueueBytes {
		pt.ctr.Drops++
		pt.ctr.DropBytes += uint64(p.Size)
		now := pt.node.net.eng.Now()
		for _, t := range pt.onDrop {
			t(p, now)
		}
		return
	}
	pt.queue.push(p)
	pt.qBytes += p.Size
	pt.ctr.Enqueued++
	if pt.armed {
		return
	}
	if eng := pt.node.net.eng; eng.Now() < pt.free {
		pt.armed = true
		eng.AtKind(pt.free, pt.node.net.kTxNext, pt, nil)
		return
	}
	pt.startTx()
}

// startTx transmits the head-of-line packet. It settles the packet's whole
// link hop at once: the transmission ends at end = now + size/rate(now),
// and the downstream arrival event is scheduled at end + propagation +
// emulated extra + the far node's processing delay. The port wakes at end
// only if a packet is queued behind this one. A tap that enqueues on this
// port (an RLI sender's reference) queues behind the packet even when its
// transmission takes 0 ns: armed is held for the whole call.
func (pt *Port) startTx() {
	p := pt.queue.pop()
	pt.qBytes -= p.Size
	pt.armed = true
	nw := pt.node.net
	now := nw.eng.Now()
	end := now.Add(simtime.TxTime(p.Size, pt.rateAt(now)))
	pt.free = end
	for _, t := range pt.onTxStart {
		t(p, now)
	}
	pt.ctr.TxPackets++
	pt.ctr.TxBytes += uint64(p.Size)
	arrive, d := true, pt.cfg.Propagation+pt.dst.proc
	if pt.emu != nil {
		extra, drop := pt.emu(p, end)
		switch {
		case drop:
			pt.ctr.EmuDrops++
			arrive = false
		case extra < 0:
			panic("netsim: negative emulated link delay")
		}
		d += extra
	}
	if arrive {
		nw.eng.AtKind(end.Add(d), nw.kArrive, pt.dst, p)
	}
	if pt.queue.len() > 0 {
		nw.eng.AtKind(end, nw.kTxNext, pt, nil)
	} else {
		pt.armed = false
	}
}

// fifo is a ring-buffer packet queue sized on demand. The buffer length is
// always a power of two so head/tail wrap with a mask instead of a modulo.
type fifo struct {
	buf        []*packet.Packet
	head, tail int
	n          int
}

func (f *fifo) len() int { return f.n }

func (f *fifo) push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[f.tail] = p
	f.tail = (f.tail + 1) & (len(f.buf) - 1)
	f.n++
}

func (f *fifo) pop() *packet.Packet {
	if f.n == 0 {
		panic("netsim: pop from empty queue")
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

func (f *fifo) grow() {
	next := make([]*packet.Packet, max(16, 2*len(f.buf)))
	mask := len(f.buf) - 1
	for i := 0; i < f.n; i++ {
		next[i] = f.buf[(f.head+i)&mask]
	}
	f.buf = next
	f.head, f.tail = 0, f.n&(len(next)-1)
}
