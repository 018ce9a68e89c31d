// Package scenario is the declarative scenario engine: one versioned Spec
// describes a network-wide workload — topology, traffic mix, fault
// injections, RLIR deployment — and Run composes the existing substrate
// (topo fat-tree + ECMP, netsim, crossinject, trace, core instruments,
// collector, runner) into a complete measured simulation.
//
// The paper's evaluation (§4) exercises RLI under a single tandem shape
// with cross traffic; real data centers produce far more diverse latency
// pathologies — incast, microbursts, degraded links, skewed ECMP paths.
// Each named scenario in the Registry captures one such pathology as a
// config value rather than hand-written experiment code, and pairs it with
// an invariant check so the registry doubles as a correctness harness (CI
// runs every registered scenario; see TestScenarioRegistrySmoke).
//
// Entry points:
//
//   - Run / RunSeed execute one spec; RunMulti sweeps derived seeds in
//     parallel and reports mean ± 95% CI.
//   - tandem.go is the paper's Figure-3 harness behind every tandem spec;
//     TandemSpec returns its small/default/full base specs, which every
//     internal/experiments figure derives its runs from. fattree.go is the
//     one fat-tree runner (build -> instrument -> inject -> run -> harvest)
//     behind every fat-tree spec, internal/experiments' A1 ablation
//     included. Nothing here imports internal/experiments.
//   - Names / Get / All enumerate the registry; Scenario.RunCheck enforces
//     a registered scenario's invariant.
//   - DecodeJSON / Spec.EncodeJSON are the JSON front-end used by
//     cmd/scenario -spec and -describe.
//   - Export (export.go) runs a spec once while capturing the export
//     stream its instruments produce — every per-packet estimate sample
//     and the NetFlow-record view of delivered traffic — as a replayable
//     Trace. cmd/loadgen replays Traces against the live service of
//     internal/service at line rate; the service tests use them to prove
//     streamed aggregation ≡ batch aggregation.
//
// Spec.Deploy.Estimators selects internal/measure mechanisms to ride the
// run's single simulation pass; Result.Comparison scores all of them
// against shared ground truth.
package scenario
