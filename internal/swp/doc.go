// Package swp is the sliding-window reliable transport of the measurement
// plane: a thin ARQ layer between exporters (RLI receivers, NetFlow
// exporters, cmd/loadgen) and the collecting service, for export paths that
// cross lossy, reordering networks where the collector codec's perfect-
// stream assumption does not hold.
//
// The unit of transfer is a segment: a sequence-numbered chunk of the
// exporter's byte stream (in practice, collector wire frames). A Sender
// splits writes into segments, keeps a bounded window of unacknowledged
// segments in flight, and retransmits on timeout with exponential backoff
// and a capped per-segment retry budget; a Receiver buffers out-of-order
// arrivals, delivers the byte stream strictly in order (exactly once —
// duplicates from retransmission are detected by sequence number and
// dropped), and acknowledges cumulatively plus selectively, so one lost
// segment does not cause the whole window to retransmit:
//
//	Sender.Write ──DATA seq=n──> lossy path ──> Receiver.Read (in order)
//	       ^                                        │
//	       └────────── ACK cum + SACK bitmap ───────┘
//
// Both ends count what the path did to them — retransmissions, timeouts,
// duplicates, reordering, gap events — which is how the collecting service
// surfaces per-exporter telemetry-loss accounting in /metrics.
//
// Segments move over a SegmentConn. StreamConn adapts any byte-stream
// connection (TCP, Unix sockets). Impair wraps any SegmentConn in a seeded
// loss model that drops, duplicates, reorders and delays its outbound
// segments deterministically — how cmd/loadgen -loss soaks a real rlird
// across an emulated lossy path. SimNet is Impair on both ends of an
// in-process pair: the harness the delivery-equivalence property tests run
// on.
package swp
