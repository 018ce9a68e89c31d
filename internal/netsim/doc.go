// Package netsim is a store-and-forward packet network simulator built on
// the discrete-event engine (internal/eventsim).
//
// It models what the paper's in-house trace-driven simulator models (§4.1,
// Figure 3): packets experience per-switch processing delay, FIFO drop-tail
// output queueing bounded in bytes, wire serialization at the link rate, and
// link propagation. Measurement instruments attach through taps — callbacks
// at transmit-start (egress hardware timestamping semantics), at node
// ingress, at local delivery, and at drop — and may inject packets into
// ports, which is how RLI senders emit reference packets.
//
// The simulator is deliberately single-threaded and allocation-lean: in a
// latency study the simulator must never perturb the quantity under
// measurement, so all instrument effects (added load from reference packets)
// are explicit packets, never hidden costs. Steady-state forwarding is
// zero-allocation (pinned by TestSteadyForwardingZeroAlloc); per-packet
// work routes through monomorphic typed events rather than closures.
//
// A link hop costs one event: when a packet starts transmission the port
// settles its whole hop — the end of serialization, the link emulator's
// verdict — and schedules its arrival event at the next node, keyed at the
// arrival plus that node's processing delay. The arrival event runs the
// ingress taps with the arrival instant and forwards inline. A port wakes
// again (txNext) only when a packet is queued behind the transmission. A node's processing delay is therefore fixed
// for the run; a delay that varies with the packet or the instant is a
// DelayFunc (Node.SetSelectiveDelay), which is how the scenario engine
// (internal/scenario) models hop-delay faults and the compromised switch.
// Links are the same: a rate that varies with the instant is a RateFunc
// (Port.SetRate), read at each transmission start, which is how the
// link-degrade fault is modeled. Nothing but packets is ever scheduled.
// Workloads enter through Network.Pull: a Source yields one packet at a time
// and holds one pending injection event, so the engine holds what is in
// flight, not the workload. Events due at one instant run in an order the
// model defines — injections, then arrivals by upstream port, dispatches,
// then departures (the tie rule in netsim.go) — never in the order the
// engine happened to be asked.
// internal/topo builds k-ary fat-trees on top of this package;
// internal/core attaches the RLI instruments.
package netsim
