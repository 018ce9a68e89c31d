package measure

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

var mfKey = packet.FlowKey{Src: packet.AddrFrom4(10, 1, 0, 1), Dst: packet.AddrFrom4(10, 2, 0, 1), SrcPort: 5, DstPort: 80, Proto: packet.ProtoTCP}

func atUS(us int) simtime.Time { return simtime.FromDuration(time.Duration(us) * time.Microsecond) }

func rec(k packet.FlowKey, first, last simtime.Time, pkts uint64) netflow.Record {
	return netflow.Record{Key: k, First: first, Last: last, Packets: pkts}
}

func TestTwoSampleAverage(t *testing.T) {
	up := []netflow.Record{rec(mfKey, atUS(0), atUS(100), 10)}
	down := []netflow.Record{rec(mfKey, atUS(40), atUS(160), 10)}
	got := twoSampleEstimates(up, down)
	if len(got) != 1 {
		t.Fatalf("estimates = %d", len(got))
	}
	e := got[0]
	if e.Mean != 50*time.Microsecond { // first delay 40µs, last 60µs
		t.Fatalf("mean = %v, want 50µs", e.Mean)
	}
	if e.Packets != 10 {
		t.Fatalf("packets = %d", e.Packets)
	}
}

func TestUnpairedFlowsSkipped(t *testing.T) {
	other := mfKey
	other.SrcPort = 99
	up := []netflow.Record{rec(mfKey, atUS(0), atUS(10), 1)}
	down := []netflow.Record{rec(other, atUS(5), atUS(15), 1)}
	if got := twoSampleEstimates(up, down); len(got) != 0 {
		t.Fatalf("unpaired flows estimated: %v", got)
	}
}

// TestLossyFlowStillEstimated: differing packet counts (loss crossed the
// flow) do not drop the estimate.
func TestLossyFlowStillEstimated(t *testing.T) {
	up := []netflow.Record{rec(mfKey, atUS(0), atUS(100), 12)}
	down := []netflow.Record{rec(mfKey, atUS(40), atUS(150), 10)} // 2 lost
	got := twoSampleEstimates(up, down)
	if len(got) != 1 || got[0].Mean != 45*time.Microsecond || got[0].Packets != 10 {
		t.Fatalf("lossy flow: %+v", got)
	}
}

func TestSinglePacketFlow(t *testing.T) {
	// First == Last on both sides: both samples are the same packet and the
	// estimate is its exact delay.
	up := []netflow.Record{rec(mfKey, atUS(10), atUS(10), 1)}
	down := []netflow.Record{rec(mfKey, atUS(35), atUS(35), 1)}
	got := twoSampleEstimates(up, down)
	if got[0].Mean != 25*time.Microsecond {
		t.Fatalf("mean = %v, want 25µs", got[0].Mean)
	}
}

func TestManyFlows(t *testing.T) {
	var up, down []netflow.Record
	for i := 0; i < 100; i++ {
		k := mfKey
		k.SrcPort = uint16(i + 1)
		up = append(up, rec(k, atUS(i*10), atUS(i*10+500), 5))
		down = append(down, rec(k, atUS(i*10+20), atUS(i*10+520), 5))
	}
	got := twoSampleEstimates(up, down)
	if len(got) != 100 {
		t.Fatalf("estimates = %d", len(got))
	}
	for _, e := range got {
		if e.Mean != 20*time.Microsecond {
			t.Fatalf("mean = %v, want 20µs", e.Mean)
		}
	}
}
