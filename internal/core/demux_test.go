package core

import (
	"testing"

	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
)

func pktFrom(src string) *packet.Packet {
	return &packet.Packet{Key: packet.FlowKey{Src: packet.MustParseAddr(src)}}
}

func TestSingleDemux(t *testing.T) {
	d := SingleDemux{ID: 7}
	id, ok := d.Classify(pktFrom("1.2.3.4"))
	if !ok || id != 7 {
		t.Fatalf("Classify = %d/%v", id, ok)
	}
}

func TestPrefixDemux(t *testing.T) {
	d := NewPrefixDemux().
		Add(packet.MustParsePrefix("10.1.0.0/16"), 1).
		Add(packet.MustParsePrefix("10.2.0.0/16"), 2).
		Add(packet.MustParsePrefix("10.2.5.0/24"), 3)

	cases := []struct {
		src  string
		want SenderID
		ok   bool
	}{
		{"10.1.9.9", 1, true},
		{"10.2.1.1", 2, true},
		{"10.2.5.1", 3, true}, // longest match wins
		{"172.16.0.1", 0, false},
	}
	for _, c := range cases {
		id, ok := d.Classify(pktFrom(c.src))
		if ok != c.ok || id != c.want {
			t.Errorf("Classify(%s) = %d/%v, want %d/%v", c.src, id, ok, c.want, c.ok)
		}
	}
}

func TestMarkDemux(t *testing.T) {
	d := NewMarkDemux().Add(1, 100).Add(2, 200)
	p := pktFrom("10.0.0.1")
	p.TOS = 2
	if id, ok := d.Classify(p); !ok || id != 200 {
		t.Fatalf("Classify = %d/%v", id, ok)
	}
	p.TOS = 9
	if _, ok := d.Classify(p); ok {
		t.Fatal("unknown mark should miss")
	}
	p.TOS = 0
	if _, ok := d.Classify(p); ok {
		t.Fatal("unmarked packet should miss")
	}
}

func TestFuncDemux(t *testing.T) {
	d := FuncDemux{F: func(p *packet.Packet) (SenderID, bool) {
		return SenderID(p.Key.SrcPort), p.Key.SrcPort != 0
	}, Label: "by-port"}
	p := pktFrom("10.0.0.1")
	p.Key.SrcPort = 42
	if id, ok := d.Classify(p); !ok || id != 42 {
		t.Fatalf("Classify = %d/%v", id, ok)
	}
	p.Key.SrcPort = 0
	if _, ok := d.Classify(p); ok {
		t.Fatal("should miss")
	}
	if d.Name() != "by-port" {
		t.Fatalf("Name = %q", d.Name())
	}
	if (FuncDemux{F: d.F}).Name() == "" {
		t.Fatal("default name empty")
	}
}

func TestOracleDemux(t *testing.T) {
	d := NewOracleDemux().Add(netsim.NodeID(5), 50).Add(netsim.NodeID(9), 90)
	p := pktFrom("10.0.0.1")
	p.RecordHop(3)
	p.RecordHop(9)
	if id, ok := d.Classify(p); !ok || id != 90 {
		t.Fatalf("Classify = %d/%v", id, ok)
	}
	q := pktFrom("10.0.0.2")
	q.RecordHop(1)
	if _, ok := d.Classify(q); ok {
		t.Fatal("no mapped hop should miss")
	}
}

func TestDemuxNames(t *testing.T) {
	ds := []Demux{
		SingleDemux{ID: 1},
		NewPrefixDemux(),
		NewMarkDemux(),
		NewOracleDemux(),
	}
	for _, d := range ds {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
	}
}
