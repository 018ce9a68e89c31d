package collector

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
)

// checkTable asserts the flow table's probe invariant — every entry sits on
// an unbroken run from its home slot — and that it indexes exactly the LRU
// ring's entries at a load of at most 1/2. It reports whether some entry's
// run wrapped past the last slot.
func checkTable(t *testing.T, s *shard) (wrapped bool) {
	t.Helper()
	ft := &s.flows
	mask := len(ft.slots) - 1
	n := 0
	for i, e := range ft.slots {
		if e == nil {
			continue
		}
		n++
		home := ft.home(e.h)
		for j := home; j != i; j = (j + 1) & mask {
			if ft.slots[j] == nil {
				t.Fatalf("%v in slot %d is unreachable: slot %d on its run from home %d is empty", e.agg.Key, i, j, home)
			}
		}
		wrapped = wrapped || i < home
	}
	ring := 0
	for e := s.lru.next; e != &s.lru; e = e.next {
		ring++
		if got, _ := ft.find(e.agg.Key, e.h); got != e {
			t.Fatalf("live flow %v: find returned %p, want its entry %p", e.agg.Key, got, e)
		}
	}
	if n != ft.n || ring != ft.n {
		t.Fatalf("table counts %d entries in its slots and %d in n, the ring holds %d", n, ft.n, ring)
	}
	if 2*ft.n > len(ft.slots) {
		t.Fatalf("load %d/%d is above 1/2", ft.n, len(ft.slots))
	}
	return wrapped
}

// TestFlowTableCollisions drives shards through shard.agg with forced hashes
// that collide — only four values, or one for every key — beside the
// oracle table fed the same stream, so equality can only come from the key
// comparison. The capped, windowed shard's single probe run wraps past the
// last slot, evictions and expiries take entries out of the middle of runs,
// and every live row, class rollup and the root must reflect.DeepEqual the
// oracle's after every batch. The uncapped shard grows through at least four
// doublings and must still find every key.
func TestFlowTableCollisions(t *testing.T) {
	// A capped shard of 8 flows stays at the initial 16 slots; this hash's
	// run starts at the last of them.
	ft := newFlowTable()
	var last uint64
	for ft.home(last) != len(ft.slots)-1 {
		last++
	}
	for _, tc := range []struct {
		name string
		hash func(packet.FlowKey) uint64
	}{
		{"low-two-bits", func(k packet.FlowKey) uint64 { return k.FastHash() & 3 }},
		{"constant", func(packet.FlowKey) uint64 { return last }},
	} {
		t.Run(tc.name+"/capped", func(t *testing.T) {
			const (
				maxFlows   = 8
				maxClasses = 3
				window     = 20 * time.Millisecond
			)
			rng := rand.New(rand.NewSource(28))
			keys := make([]packet.FlowKey, 48)
			for i := range keys {
				keys[i] = randKey(rng)
				keys[i].Src &= 0x7 // few classes: the class cap bites
				keys[i].Dst &= 0x1
			}
			s := newShard(Config{Shards: 1, MaxFlows: maxFlows, MaxClasses: maxClasses, Window: window})
			oracle := &oracleTable{
				classes: make(map[packet.FlowKey]*FlowAgg), maxFlows: maxFlows, maxClasses: maxClasses, window: window,
			}
			now := time.Unix(0, 0)
			wrapped := false
			for batch := 0; batch < 500; batch++ {
				for i, n := 0, 1+rng.Intn(12); i < n; i++ {
					// A hot four stay live; the rest churn through the
					// other slots and idle out between visits.
					k := keys[rng.Intn(4)]
					if rng.Intn(3) == 0 {
						k = keys[rng.Intn(len(keys))]
					}
					est := time.Duration(100 * math.Pow(10, 5*rng.Float64()))
					smp := Sample{Key: k, Est: est, True: est / 2}
					s.agg(k, tc.hash(k), now).addSample(smp)
					oracle.agg(k, now).addSample(smp)
				}
				s.expire(now)
				oracle.expire(now)
				now = now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)

				wrapped = checkTable(t, s) || wrapped
				if got, want := s.rows(), oracle.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: live rows differ from the oracle (%d vs %d rows)", batch, len(got), len(want))
				}
				got, want := MergeRollups(s.rollup()), oracle.rollup()
				got.Stats.Recycled = 0 // the oracle recycles nothing, by construction
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: rollup tiers differ from the oracle\n got  stats %+v\n want stats %+v", batch, got.Stats, want.Stats)
				}
			}
			if len(s.flows.slots) != len(ft.slots) {
				t.Fatalf("a table capped at %d flows grew to %d slots", maxFlows, len(s.flows.slots))
			}
			if !wrapped {
				t.Fatal("no probe run ever wrapped past the last slot")
			}
			if s.evicted == 0 || s.expired == 0 {
				t.Fatalf("stream did not both evict and expire: evicted %d, expired %d", s.evicted, s.expired)
			}
		})

		t.Run(tc.name+"/uncapped", func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			keys := make([]packet.FlowKey, 300)
			for i := range keys {
				keys[i] = randKey(rng)
			}
			s := newShard(Config{Shards: 1})
			oracle := &oracleTable{classes: make(map[packet.FlowKey]*FlowAgg), maxFlows: math.MaxInt}
			now := time.Unix(0, 0)
			for i := 0; i < 3*len(keys); i++ {
				// Each key enters in order and comes back twice, so hits
				// interleave with inserts across every doubling.
				k := keys[(i/3+i%3*37)%len(keys)]
				smp := Sample{Key: k, Est: time.Duration(1 + rng.Intn(1e6))}
				s.agg(k, tc.hash(k), now).addSample(smp)
				oracle.agg(k, now).addSample(smp)
				if i%16 == 0 {
					checkTable(t, s)
				}
			}
			checkTable(t, s)
			if doubled := len(s.flows.slots) / minTableSlots; doubled < 1<<4 {
				t.Fatalf("table grew %dx from %d slots, want at least four doublings", doubled, minTableSlots)
			}
			for _, k := range keys {
				if e, _ := s.flows.find(k, tc.hash(k)); e == nil {
					t.Fatalf("lost %v after growing to %d slots", k, len(s.flows.slots))
				}
			}
			if got, want := s.rows(), oracle.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("live rows differ from the oracle (%d vs %d rows)", len(got), len(want))
			}
		})
	}
}
