package netsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// TestDeliveryWithoutEvent pins when a delivery is settled at tx start. On
// a src -> sw -> host line, each case runs the same packets twice: once with
// the host owning an address and once without one, which is how every node
// behaved before nodes had addresses. Only a host nothing observes saves
// its arrival event for a packet addressed to it, one per delivered packet;
// counters, path traces and what taps see never differ, and a host never
// asks its forwarding function about a packet addressed to it.
func TestDeliveryWithoutEvent(t *testing.T) {
	const n = 5
	addr, other := packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)
	link := LinkConfig{RateBps: 1e9, Propagation: time.Microsecond}

	type observed struct {
		events, received, delivered, emuDrops, forwarded uint64
		hops                                             [][]int32
		seen                                             []simtime.Time
	}
	run := func(own bool, dst packet.Addr, setup func(host *Node, last *Port, seen *[]simtime.Time)) observed {
		eng := eventsim.New()
		nw := New(eng)
		nw.SetTracePaths(true)
		cfg := NodeConfig{Name: "host"}
		if own {
			cfg.Addr = addr
		}
		src := nw.AddNode(NodeConfig{Name: "src"})
		sw := nw.AddNode(NodeConfig{Name: "sw", ProcDelay: 500 * time.Nanosecond})
		host := nw.AddNode(cfg)
		nw.Connect(src, sw, link)
		last := nw.Connect(sw, host, link)
		up := func(*Node, *packet.Packet) int { return 0 }
		src.SetForward(up)
		sw.SetForward(up)
		var o observed
		host.SetForward(func(*Node, *packet.Packet) int {
			o.forwarded++
			return -1
		})
		setup(host, last, &o.seen)
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.Packet{ID: uint64(i + 1), Size: 1000, Key: packet.FlowKey{Dst: dst}}
			nw.Inject(src, &pkts[i], simtime.Zero.Add(time.Duration(i)*3*time.Microsecond))
		}
		o.events = eng.Run()
		o.received, o.delivered, o.emuDrops = host.Received(), host.Delivered(), last.Counters().EmuDrops
		for i := range pkts {
			o.hops = append(o.hops, pkts[i].Hops)
		}
		return o
	}
	record := func(seen *[]simtime.Time) TapFunc {
		return func(_ *packet.Packet, now simtime.Time) { *seen = append(*seen, now) }
	}

	untapped := func(*Node, *Port, *[]simtime.Time) {}
	for _, c := range []struct {
		name      string
		dst       packet.Addr // the packets' destination
		setup     func(host *Node, last *Port, seen *[]simtime.Time)
		settled   bool   // the addressed host saves one event per delivery
		delivered uint64 // per run
	}{
		{"untapped", addr, untapped, true, n},
		{"addressed elsewhere", other, untapped, false, n},
		{"OnReceive tap", addr, func(h *Node, _ *Port, seen *[]simtime.Time) { h.OnReceive(record(seen)) }, false, n},
		{"OnDeliver tap", addr, func(h *Node, _ *Port, seen *[]simtime.Time) { h.OnDeliver(record(seen)) }, false, n},
		{"selective delay", addr, func(h *Node, _ *Port, seen *[]simtime.Time) {
			h.SetSelectiveDelay(func(_ *packet.Packet, now simtime.Time) time.Duration {
				*seen = append(*seen, now)
				return time.Microsecond
			})
		}, false, n},
		{"emulator drop", addr, func(_ *Node, last *Port, _ *[]simtime.Time) {
			last.SetLink(lossyWire{last.Link()})
		}, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			parent, got := run(false, c.dst, c.setup), run(true, c.dst, c.setup)
			if parent.delivered != c.delivered || parent.received != c.delivered {
				t.Fatalf("without an address: received %d, delivered %d, want %d each", parent.received, parent.delivered, c.delivered)
			}
			asked := uint64(0) // an addressed host never asks about its own packets
			if c.dst != addr {
				asked = c.delivered
			}
			if parent.forwarded != c.delivered || got.forwarded != asked {
				t.Fatalf("forwarding asked %d times without an address and %d with one, want %d and %d", parent.forwarded, got.forwarded, c.delivered, asked)
			}
			want := parent.events
			if c.settled {
				want -= c.delivered
			}
			if got.events != want {
				t.Fatalf("%d events with an address, want %d (%d without)", got.events, want, parent.events)
			}
			parent.events, got.events = 0, 0
			parent.forwarded, got.forwarded = 0, 0
			if !reflect.DeepEqual(got, parent) {
				t.Fatalf("with an address observed %+v, without %+v", got, parent)
			}
			if c.delivered == 0 && got.emuDrops != n {
				t.Fatalf("emulator dropped %d, want %d", got.emuDrops, n)
			}
		})
	}
}

// lossyWire drops every packet on the wire.
type lossyWire struct{ Link }

func (l lossyWire) Flight(p *packet.Packet, end simtime.Time) (time.Duration, bool) {
	d, _ := l.Link.Flight(p, end)
	return d, true
}
