package core

import (
	"testing"
	"time"
)

// seg is one segment report with the given mean.
func seg(name string, mean time.Duration) SegmentReport {
	return SegmentReport{Name: name, Packets: 1, Mean: mean}
}

func TestLocalizerFlagsInflatedSegment(t *testing.T) {
	reports := []SegmentReport{
		seg("T1->C1", 11*time.Microsecond),
		seg("C1->T7", 1000*time.Microsecond),
		seg("T1->C2", 12*time.Microsecond),
	}
	l := NewLocalizer(3)
	l.SetBaseline("T1->C1", 11*time.Microsecond)
	l.SetBaseline("C1->T7", 11*time.Microsecond)
	l.SetBaseline("T1->C2", 11*time.Microsecond)

	anomalies := l.Examine(reports)
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
	reports := []SegmentReport{
		seg("a", 10*time.Microsecond),
		seg("b", 12*time.Microsecond),
		seg("c", 500*time.Microsecond),
	}
	anomalies := NewLocalizer(5).Examine(reports)
	if len(anomalies) != 1 || anomalies[0].Segment != "c" {
		t.Fatalf("anomalies = %v", anomalies)
	}
}

func TestLocalizerCalibrateFrom(t *testing.T) {
	reports := []SegmentReport{seg("a", 10*time.Microsecond)}
	l := NewLocalizer(2)
	l.CalibrateFrom(reports)
	if l.Baseline["a"] != 10*time.Microsecond {
		t.Fatalf("baseline = %v, want the calibration run's mean", l.Baseline["a"])
	}
	if len(l.Examine(reports)) != 0 {
		t.Fatal("freshly calibrated segments should not be anomalous")
	}
}

func TestLocalizerOrdering(t *testing.T) {
	reports := []SegmentReport{
		seg("bad", 500*time.Microsecond),
		seg("worse", 2*time.Millisecond),
	}
	l := NewLocalizer(2)
	l.SetBaseline("worse", 10*time.Microsecond)
	l.SetBaseline("bad", 10*time.Microsecond)
	anomalies := l.Examine(reports)
	if len(anomalies) != 2 || anomalies[0].Segment != "worse" {
		t.Fatalf("ordering wrong: %v", anomalies)
	}
}

// TestLocalizerSkipsSegmentWithoutBaselineTraffic: a segment whose baseline
// mean is zero (nothing crossed it in the calibration run) has no ratio and
// is never flagged.
func TestLocalizerSkipsSegmentWithoutBaselineTraffic(t *testing.T) {
	l := NewLocalizer(2)
	l.CalibrateFrom([]SegmentReport{{Name: "idle"}})
	if got := l.Examine([]SegmentReport{seg("idle", time.Millisecond)}); len(got) != 0 {
		t.Fatalf("flagged a segment with no baseline traffic: %v", got)
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
