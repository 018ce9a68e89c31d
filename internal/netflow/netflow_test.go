package netflow

import (
	"slices"
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

// TestSnapshotIsCopy pins that the run Sorted returns is a snapshot: a
// later Observe moves the live record, not the run already handed out.
func TestSnapshotIsCopy(t *testing.T) {
	m := NewMeter()
	m.Observe(k1, 100, at(1))
	snap := m.Sorted()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %d records", len(snap))
	}
	m.Observe(k1, 100, at(2))
	if r, _ := m.Lookup(k1); r.Packets != 2 {
		t.Fatalf("live record = %+v", r)
	}
	if snap[0].Packets != 1 || snap[0].Last != at(1) {
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

// TestSortedRunIsShared pins Meter.Sorted: the run holds every open record,
// sorted by key; concurrent callers get the one slice it builds; and the
// next Observe makes the following call build a new run.
func TestSortedRunIsShared(t *testing.T) {
	m := NewMeter()
	for i := range 500 {
		k := packet.FlowKey{Src: packet.Addr(i % 7), Dst: packet.Addr(i % 3), SrcPort: uint16(i * 7919 % 1000), Proto: packet.ProtoTCP}
		m.Observe(k, 100, simtime.Time(i))
	}
	runs := make(chan []Record, 4)
	for range cap(runs) {
		go func() { runs <- m.Sorted() }()
	}
	first := <-runs
	for range cap(runs) - 1 {
		if run := <-runs; &run[0] != &first[0] {
			t.Fatal("concurrent Sorted calls built separate runs")
		}
	}
	if len(first) != m.Active() || !slices.IsSortedFunc(first, func(a, b Record) int { return a.Key.Compare(b.Key) }) {
		t.Fatalf("Sorted returned %d records, %d open, sorted %v", len(first), m.Active(), slices.IsSortedFunc(first, func(a, b Record) int { return a.Key.Compare(b.Key) }))
	}
	for _, r := range first {
		if want, _ := m.Lookup(r.Key); r != want {
			t.Fatalf("run record %v, meter holds %v", r, want)
		}
	}
	m.Observe(first[0].Key, 1, 1000)
	if again := m.Sorted(); &again[0] == &first[0] || again[0].Packets != first[0].Packets+1 {
		t.Fatal("Sorted after Observe returned the stale run")
	}
}
