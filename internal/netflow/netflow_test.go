package netflow

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

var k1 = packet.FlowKey{Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
var k2 = packet.FlowKey{Src: packet.AddrFrom4(10, 0, 0, 3), Dst: packet.AddrFrom4(10, 0, 0, 4), SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}

func at(ms int) simtime.Time { return simtime.FromDuration(time.Duration(ms) * time.Millisecond) }

func TestObserveAccumulates(t *testing.T) {
	m := NewMeter()
	m.Observe(k1, 100, at(1))
	m.Observe(k1, 200, at(5))
	m.Observe(k2, 50, at(3))

	r, ok := m.Lookup(k1)
	if !ok {
		t.Fatal("k1 missing")
	}
	if r.Packets != 2 || r.Bytes != 300 {
		t.Fatalf("record = %+v", r)
	}
	if r.First != at(1) || r.Last != at(5) {
		t.Fatalf("timestamps = [%v,%v]", r.First, r.Last)
	}
	if r.Duration() != 4*time.Millisecond {
		t.Fatalf("Duration = %v", r.Duration())
	}
	if m.Active() != 2 || m.Seen() != 3 {
		t.Fatalf("active=%d seen=%d", m.Active(), m.Seen())
	}
}

func TestSinglePacketFlowTimestampsEqual(t *testing.T) {
	m := NewMeter()
	m.Observe(k1, 64, at(7))
	r, _ := m.Lookup(k1)
	if r.First != r.Last || r.Duration() != 0 {
		t.Fatalf("single-packet record = %+v", r)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := NewMeter()
	m.Observe(k1, 100, at(1))
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %d records", len(snap))
	}
	snap[0].Packets = 999
	r, _ := m.Lookup(k1)
	if r.Packets != 1 {
		t.Fatal("snapshot aliases live record")
	}
}

func TestRecordString(t *testing.T) {
	m := NewMeter()
	m.Observe(k1, 100, at(1))
	r, _ := m.Lookup(k1)
	if r.String() == "" {
		t.Fatal("empty String")
	}
}
