package collector

import (
	"testing"
	"time"
)

// BenchmarkIngest measures collector ingest throughput: samples pushed
// through the sharded plane per second of wall clock, including partitioning
// and shard aggregation. The pipeline benchmark prices the same loop as
// collector.ingest_ns_per_sample.
func BenchmarkIngest(b *testing.B) {
	stream := genStream(1, 4096, 1<<16)
	const batch = 512
	b.ReportAllocs()
	b.ResetTimer()
	c := New(Config{Shards: 4, Depth: 64})
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(stream) - batch)
		c.Ingest(stream[off : off+batch])
	}
	b.StopTimer()
	c.Close()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "samples/s")
}

// hashStream pairs every sample with its key's FastHash, as
// Collector.place hands it to a shard. The benchmarks that drive shard.agg
// directly hash before the timer starts: Ingest pays the hash in place,
// which they do not time.
func hashStream(stream []Sample) []hashedSample {
	out := make([]hashedSample, len(stream))
	for i, s := range stream {
		out[i] = hashedSample{s, s.Key.FastHash()}
	}
	return out
}

// BenchmarkIngestSequentialBaseline is the same aggregation with no
// sharding, channels or goroutines — the number Ingest's overhead is judged
// against.
func BenchmarkIngestSequentialBaseline(b *testing.B) {
	stream := hashStream(genStream(1, 4096, 1<<16))
	const batch = 512
	s := newShard(Config{Shards: 1})
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(stream) - batch)
		for _, smp := range stream[off : off+batch] {
			s.agg(smp.Key, smp.h, now).addSample(smp.Sample, &s.spares)
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkEvictionChurn measures aggregation throughput while every batch
// cycles brand-new flow keys through a full bounded table — the worst case
// where each insert evicts the LRU flow into the rollup tiers. The pipeline
// benchmark prices the same loop as collector.ingest_capped_ns_per_sample.
func BenchmarkEvictionChurn(b *testing.B) {
	const batch = 512
	stream := hashStream(genStream(1, 1<<20, 1<<20)) // ~one sample per distinct flow
	// Both tiers bounded, as a production cap would set them: with the
	// class tier unbounded the map grows for the whole run and the
	// benchmark never reaches a steady state.
	s := newShard(Config{Shards: 1, MaxFlows: 1024, MaxClasses: 256})
	now := time.Now()
	// Fill the table to its cap first so every timed batch evicts — the
	// steady churn state, even at b.N = 1.
	warm := s.maxFlows
	for _, smp := range stream[:warm] {
		s.agg(smp.Key, smp.h, now).addSample(smp.Sample, &s.spares)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := warm + (i*batch)%(len(stream)-batch-warm)
		for _, smp := range stream[off : off+batch] {
			s.agg(smp.Key, smp.h, now).addSample(smp.Sample, &s.spares)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "samples/s")
	if s.evicted == 0 {
		b.Fatal("no evictions: churn benchmark not churning")
	}
}

// BenchmarkEvictionChurnIngest is BenchmarkEvictionChurn through the public
// Ingest: the same brand-new flows through the same full table, with the
// hashing, partitioning and shard hand-off a service pays.
func BenchmarkEvictionChurnIngest(b *testing.B) {
	const batch = 512
	stream := genStream(1, 1<<20, 1<<20)
	c := New(Config{Shards: 1, MaxFlows: 1024, MaxClasses: 256})
	defer c.Close()
	const warm = 1024
	c.Ingest(stream[:warm])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := warm + (i*batch)%(len(stream)-batch-warm)
		c.Ingest(stream[off : off+batch])
	}
	c.Flows() // every timed batch folded
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "samples/s")
	if c.Stats().Evicted == 0 {
		b.Fatal("no evictions: churn benchmark not churning")
	}
}

// BenchmarkSnapshot measures Collector.Snapshot over 2 shards × ~1100 flows,
// the read_path fleet instance's table size: the query path's deep copy and
// sort on a running collector, and the scenario harvest's on a closed one.
func BenchmarkSnapshot(b *testing.B) {
	for _, closed := range []bool{false, true} {
		name := "open"
		if closed {
			name = "closed"
		}
		b.Run(name, func(b *testing.B) {
			c := New(Config{Shards: 2})
			c.Ingest(genStream(1, 2266, 1<<16))
			if closed {
				c.Close()
			} else {
				defer c.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := len(c.Snapshot()); n == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
