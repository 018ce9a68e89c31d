// Measurement-instance clock models.
//
// RLI requires time synchronization between sender and receiver ("GPS-based
// clock synchronization or IEEE 1588", paper §2). The paper's evaluation
// assumes this holds perfectly; this file makes the assumption explicit
// and falsifiable: instruments read their local clock through a Clock, and
// experiments can swap in imperfect clocks to measure how residual sync error
// propagates into per-flow latency estimates (ablation A3 in DESIGN.md).
//
// All clocks are pure functions of true simulation time, which keeps runs
// deterministic and replayable.

package simtime

import (
	"fmt"
	"time"
)

// Clock converts true simulation time into the instant shown by one
// instance's local clock.
type Clock interface {
	// Read returns the local clock reading at true instant now.
	Read(now Time) Time
	Name() string
}

// PerfectClock is an exactly synchronized clock, the paper's operating assumption.
type PerfectClock struct{}

// Read returns now unchanged.
func (PerfectClock) Read(now Time) Time { return now }

// Name implements Clock.
func (PerfectClock) Name() string { return "perfect" }

// FixedOffsetClock is a clock with a constant synchronization error, the residual
// a GPS-disciplined oscillator exhibits.
type FixedOffsetClock struct {
	Offset time.Duration
}

// Read returns now shifted by the fixed offset.
func (c FixedOffsetClock) Read(now Time) Time { return now.Add(c.Offset) }

// Name implements Clock.
func (c FixedOffsetClock) Name() string { return fmt.Sprintf("offset(%v)", c.Offset) }

// DriftingClock is a free-running oscillator: offset grows linearly at DriftPPM
// parts per million starting from Offset at the epoch.
type DriftingClock struct {
	Offset   time.Duration
	DriftPPM float64
}

// Read returns the drifted reading.
func (c DriftingClock) Read(now Time) Time {
	drift := time.Duration(float64(now) * c.DriftPPM / 1e6)
	return now.Add(c.Offset + drift)
}

// Name implements Clock.
func (c DriftingClock) Name() string { return fmt.Sprintf("drift(%v,%.2fppm)", c.Offset, c.DriftPPM) }

// PTPClock models an IEEE 1588-disciplined clock: a drifting oscillator that is
// resynchronized every SyncInterval to within ±SyncJitter of true time. The
// post-sync residual for each interval is derived deterministically from Seed
// and the interval index, so replays are exact.
type PTPClock struct {
	DriftPPM     float64
	SyncInterval time.Duration
	SyncJitter   time.Duration
	Seed         uint64
}

// Read returns the disciplined reading.
func (c PTPClock) Read(now Time) Time {
	if c.SyncInterval <= 0 {
		panic("simtime: PTPClock requires a positive SyncInterval")
	}
	k := int64(now) / int64(c.SyncInterval)
	if now < 0 {
		k--
	}
	sinceSync := int64(now) - k*int64(c.SyncInterval)
	residual := c.jitterFor(uint64(k))
	drift := time.Duration(float64(sinceSync) * c.DriftPPM / 1e6)
	return now.Add(residual + drift)
}

// jitterFor maps a sync-interval index to a residual in [-SyncJitter, +SyncJitter].
func (c PTPClock) jitterFor(k uint64) time.Duration {
	if c.SyncJitter <= 0 {
		return 0
	}
	// SplitMix64 gives a well-mixed deterministic stream keyed by (Seed, k).
	x := c.Seed + (k+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	span := 2*int64(c.SyncJitter) + 1
	return time.Duration(int64(x%uint64(span))) - c.SyncJitter
}

// Name implements Clock.
func (c PTPClock) Name() string {
	return fmt.Sprintf("ptp(%.2fppm,sync=%v,jitter=%v)", c.DriftPPM, c.SyncInterval, c.SyncJitter)
}

// ClockOffset returns the instantaneous clock disagreement b-a at true
// instant now: the error a one-way delay measurement taken from a to b
// incurs at that moment.
func ClockOffset(a, b Clock, now Time) time.Duration {
	return b.Read(now).Sub(a.Read(now))
}
