// Package trace generates packet traces and link delay/loss traces.
//
// The paper's evaluation replays two one-minute CAIDA OC-192 traces (one for
// regular traffic, one for cross traffic). Those traces are proprietary, so
// this package supplies the synthetic equivalent (see DESIGN.md,
// substitutions): a deterministic generator with heavy-tailed flow lengths,
// an empirical packet-size mix and Poisson flow arrivals. What the
// experiments actually depend on — a wide spread of per-flow packet counts
// and a controllable offered load — are explicit knobs here.
//
// Traces stream in time order and are consumed directly: every simulation
// regenerates its workload from (Config, seed), so no packet file format
// exists. The one stored format is the link trace (linktrace.go), which
// cmd/tracegen -emit link writes and cmd/scenario -link-trace reads.
//
// Seeding discipline: DeriveSeed/DeriveSeeds (seed.go) produce independent
// per-run seeds via SplitMix64 — use them instead of seed+i arithmetic
// whenever separate runs must have independent random streams (in-run
// +prime offsets remain, pinned by the golden-determinism fixture). The
// generator's hot path keeps a prepared bounded-Pareto sampler with hoisted
// transcendentals and a memoized mean, so sampling costs no math.Pow calls
// in steady state.
package trace
