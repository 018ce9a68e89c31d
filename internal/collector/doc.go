// Package collector is the concurrent measurement plane: the aggregation
// tier that a fleet of RLI receivers and NetFlow exporters stream per-flow
// telemetry into (the operational story of the paper's §3 — YAF/NetFlow
// export feeding an operator's collection infrastructure).
//
// A Collector hashes flows onto N shards. Each shard is owned by exactly one
// goroutine draining a bounded channel of batches, so per-flow aggregation
// needs no locks: all samples of one flow land on one shard, in ingest
// order. That gives the plane its determinism contract:
//
//   - Per-flow aggregates are bit-for-bit identical to single-threaded
//     sequential aggregation of the same stream, for any shard count, as
//     long as each flow's samples are ingested by one producer (they never
//     reorder within a shard).
//   - Cross-flow output order is canonicalized by sorting snapshots on
//     packet.FlowKey.Less.
//   - Merging snapshots from independent collectors (e.g. per-run planes in
//     a multi-seed sweep) with Merge is associative over disjoint flows and
//     uses the stats package's mergeable accumulators otherwise.
//
// # Reads
//
// View is the one read of the live table: every shard holds still at one
// cut, sorts pointers to its live flows on its own goroutine and hands them
// over, and the caller reads the rows in place, in flow-key order, until it
// returns. Snapshot is one copy of those rows; rlird encodes its binary
// /snapshot from them with no copy at all. Reads are serialized, and ingest
// waits while one holds the shards.
//
// # Wire format
//
// Ingestion accepts native batches ([]Sample, []netflow.Record) or the
// compact binary export format (wire.go): length-delimited frames carrying
// sample batches, NetFlow-record batches, or an exporter-identity hello.
// DecodeFrame consumes frames from an in-memory buffer; FrameReader
// (stream.go) consumes them from a socket, validating each header's record
// count against a bound before committing memory — the ingest front-end of
// the long-lived service in internal/service. FrameReader.NextRaw hands a
// frame over undecoded and Collector.IngestFrame decodes a samples frame
// straight into the shards' batch buffers, the service's hot path.
//
// # Steady state allocates nothing
//
// Shards hand processed batch buffers back to Ingest, a bounded table
// reuses the entries (and sketch storage) of the flows it folds away, and
// the LRU is two pointers inside each entry — so neither a sample nor a
// churned flow costs an allocation once the table and the pools are warm.
// The TestZeroAlloc* gates pin it; DESIGN.md "Bounded-memory aggregation"
// has the life cycle and what it costs in retained memory.
//
// Consumers: internal/runner batches per-run estimates into a shared
// collector for multi-seed sweeps; internal/scenario streams every engine
// run's estimates through a collector; internal/service keeps one alive
// behind TCP/Unix listeners and serves its snapshots over HTTP (cmd/rlird).
package collector
