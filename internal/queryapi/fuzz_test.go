package queryapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/netmeasure/rlir/internal/collector"
)

// hasNaN reports whether any float field of the table is NaN — the one
// value reflect.DeepEqual cannot compare, so tables holding it are compared
// by their encoded bytes alone.
func hasNaN(aggs []collector.FlowAgg) bool {
	for i := range aggs {
		a := &aggs[i]
		est, tru, sk := a.Est.State(), a.True.State(), a.Sketch.State()
		for _, v := range []float64{est.Mean, est.M2, tru.Mean, tru.M2, sk.Min, sk.Max} {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeSnapshot holds both /snapshot decoders to their contract on
// arbitrary bytes, seeded from real collector snapshots in both renderings
// plus the classic corruptions:
//
//   - neither decoder panics;
//   - DecodeSnapshot returns a table or an error, never both, and allocates
//     at most a fixed multiple of the input (an untrusted count never sizes
//     an allocation the bytes present cannot back);
//   - whatever either decoder accepts re-encodes to bytes that decode to the
//     same table, bit for bit;
//   - one SnapshotTable reused across every input, holding a valid table
//     when each input arrives, decodes it to what DecodeSnapshot returns or
//     fails with it — then empty, nothing of its old table left — and the
//     same table then decodes a valid body right.
func FuzzDecodeSnapshot(f *testing.F) {
	cases := snapshotCases(f)
	// The valid table is wider than the seeds, so a reused decode of a
	// shorter body has stale rows behind it that must not show.
	valid := cases[0].aggs[:8]
	prefill := AppendSnapshot(nil, valid, 5, 3)
	var arena SnapshotTable
	var again []byte
	refill := func(t testing.TB) {
		err := arena.Decode(prefill)
		if again = AppendSnapshot(again[:0], arena.Aggs, arena.Samples, arena.Records); err != nil || !bytes.Equal(again, prefill) {
			t.Fatalf("reused table decodes a valid %d-flow body wrong (%v)", len(valid), err)
		}
	}
	refill(f)

	// Seeds stay small (a few flows each) so the engine's minimizer spends
	// a short smoke run mutating rather than shrinking one big input.
	for _, c := range cases {
		aggs := c.aggs[:min(len(c.aggs), 3)]
		bin := AppendSnapshot(nil, aggs, 11, 7)
		f.Add(bin)
		f.Add(bin[:len(bin)/2])
		if js, err := json.Marshal(SnapshotOf(aggs, 11, 7)); err == nil && len(js) < 1<<14 {
			f.Add(js)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(`{"samples":7,"records":0,"flows":[]}`))
	// A version-2 peer's body in both renderings (captured from the last
	// commit that spoke it): valid then, a version error now.
	for _, name := range []string{"snapshot_v2.bin", "snapshot_v2.json"} {
		f.Add(readFixture(f, name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		aggs, samples, records, err := DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		// A decoded row is ~2.3x its shortest encoding and a bucket counter 8x
		// its byte; 32x plus the fixed scratch window covers both with room
		// for the fuzz worker's own background allocations.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+(1<<16)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			if aggs != nil || samples != 0 || records != 0 {
				t.Fatalf("partial result beside error %v", err)
			}
		} else {
			requireStable(t, aggs, samples, records)
		}

		if reuseErr := arena.Decode(data); (reuseErr == nil) != (err == nil) {
			t.Fatalf("reused table: error %v, fresh decoder: error %v", reuseErr, err)
		}
		if err != nil && (len(arena.Aggs) != 0 || arena.Samples != 0 || arena.Records != 0) {
			t.Fatalf("reused table keeps %d flows, totals %d/%d beside error %v", len(arena.Aggs), arena.Samples, arena.Records, err)
		}
		if err == nil && !sameTable(arena.Aggs, aggs, arena.Samples, arena.Records, samples, records) {
			t.Fatalf("reused table decodes %d flows (totals %d/%d), fresh decoder %d (%d/%d)",
				len(arena.Aggs), arena.Samples, arena.Records, len(aggs), samples, records)
		}
		refill(t)

		var s Snapshot
		if json.Unmarshal(data, &s) == nil && s.Check() == nil {
			requireStable(t, s.Aggs(), s.Samples, s.Records)
		}
	})
}

// sameTable reports whether two decoded tables and their totals are equal:
// by value, or by their encoding when a NaN makes values incomparable. An
// empty table equals nil.
func sameTable(a, b []collector.FlowAgg, sa, ra, sb, rb uint64) bool {
	if sa != sb || ra != rb || len(a) != len(b) {
		return false
	}
	if hasNaN(a) || hasNaN(b) {
		return bytes.Equal(AppendSnapshot(nil, a, sa, ra), AppendSnapshot(nil, b, sb, rb))
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

// requireStable asserts an accepted table survives the binary wire
// unchanged: encode, decode, and both the value and its encoding match.
func requireStable(t *testing.T, aggs []collector.FlowAgg, samples, records uint64) {
	t.Helper()
	wire := AppendSnapshot(nil, aggs, samples, records)
	again, s2, r2, err := DecodeSnapshot(wire)
	if err != nil {
		t.Fatalf("re-encoded table rejected: %v", err)
	}
	if s2 != samples || r2 != records {
		t.Fatalf("totals %d/%d re-decoded as %d/%d", samples, records, s2, r2)
	}
	if !bytes.Equal(AppendSnapshot(nil, again, s2, r2), wire) {
		t.Fatal("re-decoded table encodes differently")
	}
	if !hasNaN(aggs) && !reflect.DeepEqual(again, aggs) {
		t.Fatalf("re-decoded table differs (%d flows)", len(aggs))
	}
}
