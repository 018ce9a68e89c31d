// Package fleet is the distributed collection tier: consistent-hash
// partitioning of flows across N rlird instances, the client-side router
// that streams each flow's export traffic to its owning instance, and the
// scatter-gather front-end that merges per-instance answers back into one
// exact fleet-wide view.
//
// The design theorem is flow disjointness. Partition routes every sample
// and record of a flow to exactly one instance (FastHash mod N), so no two
// instances ever hold state for the same flow; merging instance snapshots
// with collector.Merge therefore never folds two non-empty same-key
// accumulators, no float addition is ever reassociated, and the fleet-of-N
// flow table is bit-identical to what one instance ingesting the whole
// stream would hold. The scenario engine pins exactly that
// (internal/scenario's fleet scenarios), and the front-end's merged /flows
// and /comparison responses are field-for-field those of a single node.
//
// Three pieces:
//
//   - Router: the exporter side. It owns an endpoints × connections sink
//     grid (dialed through an injected DialFunc, so raw and swp-reliable
//     service clients both fit), partitions batches by flow hash with
//     per-flow order preserved, and drives each sink from its own worker
//     goroutine with a bounded queue, per-endpoint counters, and redial
//     with backoff on send failure. With one endpoint the grid degenerates
//     to exactly the per-connection partitioning cmd/loadgen always used.
//
//   - Frontend: the operator side. An http.Handler that scatter-gathers
//     instance /snapshot (raw accumulator state, exact over the wire — see
//     internal/queryapi), /routers and /healthz with a bounded per-fanout
//     timeout, merges via collector.Merge's k-way merge, and renders through
//     the same queryapi renderers a single rlird uses — decoding, merging and
//     rendering into buffers it keeps on a small bounded free list, so a
//     merged query in steady state allocates nothing per row.
//
//   - Partition/SinkIndex: the hash contract itself, shared by the router,
//     the scenario fleet report's estimator re-scoring, and any exporter
//     that wants to agree with them.
//
// The package does not import internal/service: callers wire
// service.Client in as the Router's DialFunc and so choose the transport —
// cmd front-ends (and the root package) over sockets, a scenario's fleet
// spec over in-memory pipes.
package fleet
