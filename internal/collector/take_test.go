package collector

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// TestTakeMatchesClosedSnapshot pins Take to Snapshot: two collectors fed
// the same random stream of samples and records — under a flow cap and an
// idle window, with a fake clock advancing between batches so flows are
// evicted, expired and recycled — hand over the same rows, one moved and
// one cloned. After Take the collector has no flows left to hand over,
// while its rollup tiers and counters are untouched.
func TestTakeMatchesClosedSnapshot(t *testing.T) {
	for trial := range 20 {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{Shards: 1 + rng.Intn(5), Window: time.Duration(1+rng.Intn(5)) * time.Second}
		if trial%4 != 0 {
			cfg.MaxFlows = 8 + rng.Intn(200)
			cfg.MaxClasses = rng.Intn(20)
		}
		a, b := feedTwins(rng, cfg, func() packet.FlowKey {
			return packet.FlowKey{
				Src:     packet.AddrFrom4(10, uint8(rng.Intn(4)), uint8(rng.Intn(2)), 2),
				Dst:     packet.AddrFrom4(10, uint8(rng.Intn(4)), 0, uint8(2+rng.Intn(2))),
				SrcPort: uint16(rng.Intn(300)), DstPort: 80, Proto: packet.ProtoTCP,
			}
		})
		a.Close()
		b.Close()
		want := b.Snapshot()
		rollup, stats := a.RollupSnapshot(), a.Stats()
		got := a.Take()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): Take's %d rows differ from a closed Snapshot's %d", trial, cfg, len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("trial %d: no live flows to hand over", trial)
		}
		if again := a.Take(); again != nil {
			t.Fatalf("trial %d: a second Take handed over %d rows", trial, len(again))
		}
		if snap := a.Snapshot(); snap != nil {
			t.Fatalf("trial %d: Snapshot after Take returned %d rows", trial, len(snap))
		}
		stats.Flows = 0
		if r := a.RollupSnapshot(); !reflect.DeepEqual(r.Classes, rollup.Classes) || !reflect.DeepEqual(r.Root, rollup.Root) || a.Stats() != stats {
			t.Fatalf("trial %d: Take moved the rollup tiers or counters", trial)
		}
	}
}

// feedTwins starts two collectors of cfg, each on its own fake clock, and
// feeds both the same random stream of samples and records over keys drawn
// by key, with the clocks advancing between batches so that flows are
// evicted, expired and recycled as cfg allows. The collectors are left
// open.
func feedTwins(rng *rand.Rand, cfg Config, key func() packet.FlowKey) (a, b *Collector) {
	clkA, clkB := newFakeClock(), newFakeClock()
	ca, cb := cfg, cfg
	ca.Clock, cb.Clock = clkA.Now, clkB.Now
	a, b = New(ca), New(cb)
	for range 30 + rng.Intn(30) {
		batch := make([]Sample, rng.Intn(300))
		for i := range batch {
			batch[i] = Sample{Key: key(), Est: time.Duration(rng.Intn(1e6)), True: time.Duration(rng.Intn(1e6))}
		}
		var recs []netflow.Record
		for range rng.Intn(4) {
			recs = append(recs, netflow.Record{Key: key(), First: simtime.Time(rng.Intn(1e6)), Last: simtime.Time(1e6 + rng.Intn(1e6)), Packets: 1 + uint64(rng.Intn(9)), Bytes: uint64(rng.Intn(1e4))})
		}
		for _, c := range []*Collector{a, b} {
			c.Ingest(batch)
			c.IngestRecords(recs)
		}
		// Both collectors' batches are queued; drain them before the
		// clocks move, so each batch sees the same instant.
		a.Stats()
		b.Stats()
		step := time.Duration(rng.Intn(1500)) * time.Millisecond
		clkA.Advance(step)
		clkB.Advance(step)
	}
	return a, b
}

// TestOpenSnapshotMatchesTake pins the open path's sort to the closed one's:
// an open collector's Snapshot — each shard's run sorted on the shard, then
// merged — equals Take on an identically fed twin, whose shards' rows are
// sorted as one run. The keys differ in every byte lane of the packed key,
// so every radix pass of packet.SortByKey runs on both paths.
func TestOpenSnapshotMatchesTake(t *testing.T) {
	for trial := range 10 {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cfg := Config{Shards: 1 + rng.Intn(5), Window: time.Duration(1+rng.Intn(5)) * time.Second}
		if trial%2 != 0 {
			cfg.MaxFlows = 8 + rng.Intn(200)
		}
		// A few hundred distinct keys, each field drawn over its whole
		// range, so duplicates recur and no byte is shared by all.
		keys := make([]packet.FlowKey, 50+rng.Intn(400))
		var lanes [13]bool
		for i := range keys {
			keys[i] = packet.FlowKey{
				Src: packet.Addr(rng.Uint32()), Dst: packet.Addr(rng.Uint32()),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: packet.Proto(rng.Uint32()),
			}
			k, k0 := keyBytes(keys[i]), keyBytes(keys[0])
			for l := range lanes {
				lanes[l] = lanes[l] || k[l] != k0[l]
			}
		}
		for l, differs := range lanes {
			if !differs {
				t.Fatalf("trial %d: every key shares byte lane %d", trial, l)
			}
		}
		a, b := feedTwins(rng, cfg, func() packet.FlowKey { return keys[rng.Intn(len(keys))] })
		want := a.Snapshot()
		a.Close()
		b.Close()
		got := b.Take()
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): Take's %d rows differ from an open Snapshot's %d", trial, cfg, len(got), len(want))
		}
	}
}

// keyBytes lays a flow key out one field byte per lane.
func keyBytes(k packet.FlowKey) [13]byte {
	return [13]byte{
		byte(k.Src >> 24), byte(k.Src >> 16), byte(k.Src >> 8), byte(k.Src),
		byte(k.Dst >> 24), byte(k.Dst >> 16), byte(k.Dst >> 8), byte(k.Dst),
		byte(k.SrcPort >> 8), byte(k.SrcPort), byte(k.DstPort >> 8), byte(k.DstPort), byte(k.Proto),
	}
}

// TestTakeBeforeClosePanics: an open collector's shards still own their
// tables.
func TestTakeBeforeClosePanics(t *testing.T) {
	c := New(Config{Shards: 2})
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Take on an open collector did not panic")
		}
	}()
	c.Take()
}
