package eventsim

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// horizon is the first instant the wheel does not cover while the clock is
// at now: the start of the slot one span after now's.
func horizon(now simtime.Time) simtime.Time {
	return simtime.Time((uint64(now)>>slotShift + wheelSlots) << slotShift)
}

// fuzzPlace reads where each schedule call of a fuzzed plan lands from one
// byte: at the caller's instant keyed one below its key, one above it or
// with a drawn key; one nanosecond before the horizon, exactly at it or one
// past it; at the horizon's own horizon, the first instant the wheel cannot
// take when its cursor reaches the horizon; a log-uniform gap of up to
// 2^40 ns, which leaves the wheel empty while only such events are pending;
// or 0 to 8 grid steps ahead.
func fuzzPlace(now simtime.Time, caller uint64, b byte, h uint64) (simtime.Time, uint64) {
	key := h >> 48 % tieKeys
	switch b % 9 {
	case 0:
		return now, caller - min(caller, 1)
	case 1:
		return now, caller + 1
	case 2:
		return now, key
	case 3:
		return horizon(now) - 1, key
	case 4:
		return horizon(now), key
	case 5:
		return horizon(now) + 1, key
	case 6:
		return horizon(horizon(now)), key
	case 7:
		return now.Add(tieDelay(h | 1)), key
	default:
		return now.Add(time.Duration(h>>8%9) * tieGrid), key
	}
}

// FuzzQueueOrder runs plans read from the fuzzer's bytes against the
// reference order. Roots are set up at instants from 0 to 2^40 ns and on
// the grid near zero, and drained by a Run; then five more are set up
// around the new clock's horizon and past it, and drained by a second Run.
// Each executed event reads one byte for how many schedule calls it makes
// (0 to 3) and one per call for where it lands (fuzzPlace); a plan ends
// when its bytes do. The seed corpus is the property tests' seeds, each
// with bytes hashed from it.
func FuzzQueueOrder(f *testing.F) {
	for seed := uint64(1); seed <= 60; seed++ {
		plan := make([]byte, 256)
		for i := range plan {
			plan[i] = byte(tieMix(seed<<16 + uint64(i)))
		}
		f.Add(seed, plan)
	}
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte) {
		plan = plan[:min(len(plan), 4096)]
		next := func() (byte, bool) {
			if len(plan) == 0 {
				return 0, false
			}
			b := plan[0]
			plan = plan[1:]
			return b, true
		}
		var p *queuePlan
		p = newQueuePlan(t, seed, func(*tieNode, uint64) int {
			b, _ := next()
			return int(b % 4)
		})
		p.place = func(nd *tieNode, h uint64) (simtime.Time, uint64) {
			b, _ := next()
			return fuzzPlace(p.e.Now(), p.calls[nd.id].key, b, h)
		}
		const depth = 1 << 30 // the bytes end a plan, not its depth
		for r := range uint64(8) {
			h := tieMix(seed<<8 + r)
			at := simtime.Time(h >> 24) // 0 to 2^40 ns
			if r%2 == 0 {
				at = simtime.Time(h>>8%9) * simtime.Time(tieGrid)
			}
			p.schedule(h, depth, at, h>>48%tieKeys)
		}
		p.run()
		for r := range uint64(5) {
			h := tieMix(seed<<8 + 8 + r)
			at, key := fuzzPlace(p.e.Now(), h>>48%tieKeys, byte(3+r), h)
			p.schedule(h, depth, at, key)
		}
		p.run()
		p.verify()
		if p.e.Filed() < p.e.Processed() {
			t.Fatalf("seed %d: %d events ran, filed only %d times", seed, p.e.Processed(), p.e.Filed())
		}
	})
}
