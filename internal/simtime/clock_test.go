package simtime

import (
	"testing"
	"time"
)

func TestPerfect(t *testing.T) {
	var c PerfectClock
	now := FromSeconds(12.5)
	if c.Read(now) != now {
		t.Fatal("perfect clock should read true time")
	}
}

func TestFixedOffset(t *testing.T) {
	c := FixedOffsetClock{Offset: 3 * time.Microsecond}
	now := FromSeconds(1)
	if got := c.Read(now).Sub(now); got != 3*time.Microsecond {
		t.Fatalf("offset = %v", got)
	}
	neg := FixedOffsetClock{Offset: -time.Microsecond}
	if got := neg.Read(now).Sub(now); got != -time.Microsecond {
		t.Fatalf("negative offset = %v", got)
	}
}

func TestDriftingGrowsLinearly(t *testing.T) {
	c := DriftingClock{DriftPPM: 10} // 10 µs per second
	at1 := c.Read(FromSeconds(1)).Sub(FromSeconds(1))
	at2 := c.Read(FromSeconds(2)).Sub(FromSeconds(2))
	if at1 != 10*time.Microsecond {
		t.Fatalf("drift at 1s = %v, want 10µs", at1)
	}
	if at2 != 20*time.Microsecond {
		t.Fatalf("drift at 2s = %v, want 20µs", at2)
	}
}

func TestDriftingInitialOffset(t *testing.T) {
	c := DriftingClock{Offset: time.Millisecond, DriftPPM: 0}
	if got := c.Read(Zero).Sub(Zero); got != time.Millisecond {
		t.Fatalf("offset at epoch = %v", got)
	}
}

func TestPTPBoundedResidual(t *testing.T) {
	c := PTPClock{DriftPPM: 5, SyncInterval: time.Second, SyncJitter: time.Microsecond, Seed: 42}
	for s := 0.0; s < 100; s += 0.37 {
		now := FromSeconds(s)
		err := c.Read(now).Sub(now)
		// Worst case: jitter + one full interval of drift.
		bound := time.Microsecond + 5*time.Microsecond + time.Nanosecond
		if err > bound || err < -bound {
			t.Fatalf("PTPClock error %v at %v exceeds bound %v", err, now, bound)
		}
	}
}

func TestPTPDeterministic(t *testing.T) {
	a := PTPClock{DriftPPM: 3, SyncInterval: time.Second, SyncJitter: 500 * time.Nanosecond, Seed: 7}
	b := a
	for s := 0.0; s < 10; s += 0.1 {
		now := FromSeconds(s)
		if a.Read(now) != b.Read(now) {
			t.Fatal("identical PTPClock configs must read identically")
		}
	}
}

func TestPTPResyncActuallyResyncs(t *testing.T) {
	// With large drift and frequent syncs, the error just after a sync must
	// be much smaller than the drift accumulated over a full interval.
	c := PTPClock{DriftPPM: 1000, SyncInterval: 100 * time.Millisecond, SyncJitter: 10 * time.Nanosecond, Seed: 1}
	justAfter := FromDuration(500*time.Millisecond + time.Microsecond)
	err := c.Read(justAfter).Sub(justAfter)
	if err > 15*time.Nanosecond+time.Nanosecond || err < -15*time.Nanosecond-time.Nanosecond {
		t.Fatalf("error just after sync = %v, want within jitter+drift(1µs)", err)
	}
}

func TestPTPPanicsWithoutInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PTPClock{}.Read(Zero)
}

func TestOffsetBetween(t *testing.T) {
	a := FixedOffsetClock{Offset: time.Microsecond}
	b := FixedOffsetClock{Offset: 4 * time.Microsecond}
	if got := ClockOffset(a, b, FromSeconds(1)); got != 3*time.Microsecond {
		t.Fatalf("OffsetBetween = %v, want 3µs", got)
	}
}

func TestNames(t *testing.T) {
	srcs := []Clock{PerfectClock{}, FixedOffsetClock{}, DriftingClock{}, PTPClock{SyncInterval: time.Second}}
	for _, s := range srcs {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}
