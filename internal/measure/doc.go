// Package measure is the unified estimator layer: one small pluggable API
// that every per-flow latency measurement mechanism in the repository
// implements — RLI interpolation (internal/core), the LDA aggregate sketch
// (internal/lda), NetFlow-style packet sampling, and the Multiflow
// two-timestamp estimator (mfest.go, over internal/netflow meters).
//
// The paper's central claim is comparative: RLI delivers per-flow latency
// fidelity that aggregate sketches and NetFlow-derived baselines cannot, at
// bounded active-probing overhead (§5). Making that claim measurable in
// every scenario requires running the mechanisms side by side on the *same*
// packet stream, not on per-mechanism reruns. The layer therefore splits
// into:
//
//   - Estimator: a zero-alloc per-packet Tap at the segment end plus a
//     Finalize returning a Report (per-flow estimates, an aggregate and an
//     Overhead accounting of injected/sampled bytes). Mechanisms that also
//     observe the segment start (LDA's sender sketch, the sampling and
//     NetFlow baselines' upstream timestamps) additionally implement
//     StartTapper.
//   - Dispatch: the shared tap fan-out a harness attaches at its
//     measurement points — one packet stream, N estimators, no per-packet
//     allocation in the dispatch itself.
//   - Truth: the harness-owned ground-truth table (per-flow true delay
//     accumulators fed from the simulator's SegmentStart stamps) every
//     estimator is scored against by Compare.
//   - Registry (registry.go): named constructors, so scenario specs and
//     CLIs select estimators by name — Names, Registered, New, ParseList.
//
// Two comparison paths exist. Compare scores finalized estimator Reports
// against a harness-owned Truth table (the batch engines). CompareFlowAggs
// (streamcmp.go) scores a collector flow table against the ground truth
// shipped in-band with every sample — the streaming path, which is what a
// long-lived service (internal/service) answers /comparison from without
// any access to the simulation that produced the stream. The two agree
// exactly on the same sample population.
package measure
