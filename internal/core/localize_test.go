package core

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// rxWithDelays builds a receiver whose aggregate histogram holds the given
// per-packet estimates, by replaying a synthetic window.
func rxWithDelays(t *testing.T, delays []time.Duration) *Receiver {
	t.Helper()
	r := newRx(t, ReceiverConfig{Estimator: Nearest})
	base := simtime.FromSeconds(1)
	for i, d := range delays {
		k := testKey
		k.SrcPort = uint16(i + 1)
		r.Observe(regPkt(uint64(i), k, base), base.Add(time.Duration(i)))
		// Close each packet with its own reference at exactly delay d: the
		// nearest estimator copies the reference delay.
		ref := refPkt(1, uint32(i+1), base)
		r.Observe(ref, base.Add(d))
		base = base.Add(time.Millisecond)
	}
	return r
}

func TestSegmentReport(t *testing.T) {
	r := rxWithDelays(t, []time.Duration{
		10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond,
	})
	seg := Segment{Name: "T1->C1", Receiver: r}
	rep := seg.Report()
	if rep.Packets != 3 {
		t.Fatalf("packets = %d", rep.Packets)
	}
	if rep.Mean != 20*time.Microsecond {
		t.Fatalf("mean = %v", rep.Mean)
	}
	if rep.Name != "T1->C1" {
		t.Fatalf("name = %q", rep.Name)
	}
}

func TestLocalizerFlagsInflatedSegment(t *testing.T) {
	healthy1 := rxWithDelays(t, []time.Duration{10 * time.Microsecond, 12 * time.Microsecond})
	healthy2 := rxWithDelays(t, []time.Duration{11 * time.Microsecond, 13 * time.Microsecond})
	sick := rxWithDelays(t, []time.Duration{900 * time.Microsecond, 1100 * time.Microsecond})

	segs := []Segment{
		{Name: "T1->C1", Receiver: healthy1},
		{Name: "C1->T7", Receiver: sick},
		{Name: "T1->C2", Receiver: healthy2},
	}
	l := NewLocalizer(3)
	l.SetBaseline("T1->C1", 11*time.Microsecond)
	l.SetBaseline("C1->T7", 11*time.Microsecond)
	l.SetBaseline("T1->C2", 11*time.Microsecond)

	anomalies := l.Examine(segs)
	if len(anomalies) != 1 {
		t.Fatalf("anomalies = %v", anomalies)
	}
	if anomalies[0].Segment != "C1->T7" {
		t.Fatalf("flagged %q", anomalies[0].Segment)
	}
	if anomalies[0].Ratio < 50 {
		t.Fatalf("ratio = %v, expected huge", anomalies[0].Ratio)
	}
	if anomalies[0].String() == "" {
		t.Fatal("empty anomaly string")
	}
}

func TestLocalizerFallbackBaseline(t *testing.T) {
	// Without baselines, segments are compared to the median segment mean:
	// with two healthy and one sick segment, only the sick one is flagged.
	segs := []Segment{
		{Name: "a", Receiver: rxWithDelays(t, []time.Duration{10 * time.Microsecond})},
		{Name: "b", Receiver: rxWithDelays(t, []time.Duration{12 * time.Microsecond})},
		{Name: "c", Receiver: rxWithDelays(t, []time.Duration{500 * time.Microsecond})},
	}
	anomalies := NewLocalizer(5).Examine(segs)
	if len(anomalies) != 1 || anomalies[0].Segment != "c" {
		t.Fatalf("anomalies = %v", anomalies)
	}
}

func TestLocalizerCalibrateFrom(t *testing.T) {
	segs := []Segment{
		{Name: "a", Receiver: rxWithDelays(t, []time.Duration{10 * time.Microsecond})},
	}
	l := NewLocalizer(2)
	l.CalibrateFrom(segs)
	if len(l.Examine(segs)) != 0 {
		t.Fatal("freshly calibrated segments should not be anomalous")
	}
}

func TestLocalizerOrdering(t *testing.T) {
	segs := []Segment{
		{Name: "worse", Receiver: rxWithDelays(t, []time.Duration{2 * time.Millisecond})},
		{Name: "bad", Receiver: rxWithDelays(t, []time.Duration{500 * time.Microsecond})},
	}
	l := NewLocalizer(2)
	l.SetBaseline("worse", 10*time.Microsecond)
	l.SetBaseline("bad", 10*time.Microsecond)
	anomalies := l.Examine(segs)
	if len(anomalies) != 2 || anomalies[0].Segment != "worse" {
		t.Fatalf("ordering wrong: %v", anomalies)
	}
}

func TestLocalizerThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLocalizer(1)
}
