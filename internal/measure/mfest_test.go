package measure

import (
	"math/rand"
	"slices"
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
	got := twoSampleEstimates(up, down, 0)
	if len(got) != 1 {
		t.Fatalf("estimates = %d", len(got))
	}
	e := got[0]
	if e.Mean != 50*time.Microsecond { // first delay 40µs, last 60µs
		t.Fatalf("mean = %v, want 50µs", e.Mean)
	}
	if e.Weight != 10 {
		t.Fatalf("weight = %d", e.Weight)
	}
}

func TestUnpairedFlowsSkipped(t *testing.T) {
	other := mfKey
	other.SrcPort = 99
	up := []netflow.Record{rec(mfKey, atUS(0), atUS(10), 1)}
	down := []netflow.Record{rec(other, atUS(5), atUS(15), 1)}
	if got := twoSampleEstimates(up, down, 0); len(got) != 0 {
		t.Fatalf("unpaired flows estimated: %v", got)
	}
}

// TestLossyFlowStillEstimated: differing packet counts (loss crossed the
// flow) do not drop the estimate.
func TestLossyFlowStillEstimated(t *testing.T) {
	up := []netflow.Record{rec(mfKey, atUS(0), atUS(100), 12)}
	down := []netflow.Record{rec(mfKey, atUS(40), atUS(150), 10)} // 2 lost
	got := twoSampleEstimates(up, down, 0)
	if len(got) != 1 || got[0].Mean != 45*time.Microsecond || got[0].Weight != 10 {
		t.Fatalf("lossy flow: %+v", got)
	}
}

func TestSinglePacketFlow(t *testing.T) {
	// First == Last on both sides: both samples are the same packet and the
	// estimate is its exact delay.
	up := []netflow.Record{rec(mfKey, atUS(10), atUS(10), 1)}
	down := []netflow.Record{rec(mfKey, atUS(35), atUS(35), 1)}
	got := twoSampleEstimates(up, down, 0)
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
	got := twoSampleEstimates(up, down, 0)
	if len(got) != 100 {
		t.Fatalf("estimates = %d", len(got))
	}
	for _, e := range got {
		if e.Mean != 20*time.Microsecond {
			t.Fatalf("mean = %v, want 20µs", e.Mean)
		}
	}
}

// TestMergeJoinMatchesMapJoin pins Finalize's merge-join over key-sorted
// runs to the map join it replaced, followed by a key sort of the
// estimates: random records at both points, with keys seen at one point
// only on either side, exact and millisecond-quantized timestamps, give
// the same estimates and weights in the same order.
func TestMergeJoinMatchesMapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 100 {
		quantize := time.Duration(0)
		if trial%2 == 1 {
			quantize = DefaultQuantize
		}
		round := func(t simtime.Time) simtime.Time {
			if quantize == 0 {
				return t
			}
			step := int64(quantize)
			return simtime.Time((int64(t) + step/2) / step * step)
		}
		var up, down []netflow.Record
		for i := range rng.Intn(300) {
			k := mfKey
			k.Src = packet.AddrFrom4(10, uint8(rng.Intn(4)), 0, 2)
			k.SrcPort = uint16(i)
			first := simtime.Time(rng.Int63n(int64(5 * time.Millisecond)))
			u := rec(k, first, first+simtime.Time(rng.Int63n(int64(time.Millisecond))), 1+uint64(rng.Intn(50)))
			d := rec(k, u.First+simtime.Time(rng.Intn(3e5)), u.Last+simtime.Time(rng.Intn(3e5)), u.Packets-uint64(rng.Intn(int(u.Packets))))
			switch rng.Intn(5) {
			case 0:
				up = append(up, u)
			case 1:
				down = append(down, d)
			default:
				up, down = append(up, u), append(down, d)
			}
		}
		byKey := map[packet.FlowKey]netflow.Record{}
		for _, u := range up {
			byKey[u.Key] = u
		}
		var want []FlowEstimate
		for _, d := range down {
			if u, ok := byKey[d.Key]; ok {
				mean := (round(d.First).Sub(round(u.First)) + round(d.Last).Sub(round(u.Last))) / 2
				want = append(want, FlowEstimate{Key: d.Key, Mean: mean, N: 2, Weight: int64(d.Packets)})
			}
		}
		slices.SortFunc(want, func(a, b FlowEstimate) int { return a.Key.Compare(b.Key) })

		sorted := func(rs []netflow.Record) []netflow.Record {
			rs = slices.Clone(rs)
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			slices.SortFunc(rs, func(a, b netflow.Record) int { return a.Key.Compare(b.Key) })
			return rs
		}
		got := twoSampleEstimates(sorted(up), sorted(down), quantize)
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Fatalf("trial %d (quantize %v): merge-join gave %d estimates, map join %d", trial, quantize, len(got), len(want))
		}
	}
}
