// Package runner orchestrates parallel multi-seed experiment sweeps: many
// independent simulations (each single-goroutine and deterministic per seed)
// fanned across workers, with per-run telemetry merged through the
// collector plane.
//
// Determinism contract: a job must depend only on its (index, seed) pair —
// eventsim engines, generators and receivers are all built inside the job —
// so the result slice is identical for any worker count; only wall-clock
// changes. Seeds come from trace.DeriveSeeds (SplitMix64), so run i's random
// streams are independent of run j's.
//
// The pieces:
//
//   - Map fans job(i, seed) across at most w workers, results in seed
//     order.
//   - Sink batches one run's per-packet estimates into collector ingest
//     batches (bind Add to a receiver's OnEstimate hook).
//   - Pacer (pacer.go) is the wall-clock counterpart: a token bucket that
//     paces replay traffic (cmd/loadgen) at a target rate against the live
//     service, where simulation time does not apply.
package runner
