// Package rlir is an implementation and experimental reproduction of
// RLIR — Reference Latency Interpolation across Routers (Singh, Lee, Kumar,
// Kompella; USENIX Hot-ICE 2011) — together with every substrate the paper
// depends on: a deterministic discrete-event network simulator, k-ary
// fat-tree topologies with ECMP routing, synthetic heavy-tailed traffic
// generation, cross-traffic injection models, clock-synchronization models,
// and the LDA and Multiflow baseline estimators.
//
// # What RLIR is
//
// RLI (SIGCOMM 2010) measures per-flow latency between two points of a
// switch by injecting timestamped reference packets and linearly
// interpolating the delays of the regular packets between them. RLIR
// deploys RLI instances at only a subset of routers (e.g. ToR uplinks and
// cores of a fat-tree) and measures multi-router segments, trading a
// coarser localization granularity for a much smaller deployment. Partial
// deployment raises two problems the paper solves and this library
// implements:
//
//   - Traffic multiplexing: receivers see packets that only partially share
//     the reference stream's path. Senders fan reference streams to every
//     reachable receiver; receivers demultiplex regular packets by source
//     prefix (upstream), ToS marks, or reverse-ECMP computation
//     (downstream).
//   - Cross traffic: a sender cannot see downstream bottleneck utilization,
//     so adaptive injection misfires. The paper's static worst-case
//     injection (1-and-n) is the recommended fallback, and the library
//     reproduces the interference comparison between the two.
//
// # Layout
//
// This root package (rlir.go) is the stable public API: thin, documented
// re-exports of the implementation packages under internal/. Start with
// README.md for the repository tour and runnable quickstarts, the examples
// directory for complete programs, or:
//
//	spec, _ := rlir.TandemSpec("default") // Figure 3: static 1-and-100, 93% bottleneck
//	res, err := rlir.RunScenario(spec)
//	if err == nil {
//	    fmt.Println(res.Overall)
//	}
//
// The API groups in rlir.go, in reading order:
//
//   - Packet and flow identity (FlowKey, Addr) and injection
//     schemes (Static, Adaptive) — the paper's §3.2 mechanism surface.
//   - Experiment harnesses (the Fig4*/Fig5/Scalars/Ablation* reproductions
//     and RunLocalization) — every figure and table of §4 — and their seed
//     sweeps: each is an ExperimentTarget, and Sweep folds any of them
//     across seeds into a TableCI of mean ± 95% CI cells; EXPERIMENTS.md
//     records the paper-vs-measured comparison. Every one of them runs
//     ScenarioSpecs — tandem points derived from a TandemSpec base,
//     DefaultFatTreeSpec, a hotspot spec with a hop-delay fault — on the
//     scenario engine's tandem harness and its one fat-tree runner. Nothing
//     outside the engine builds a network.
//   - The unified estimator layer (EstimatorNames, ParseEstimatorList):
//     every measurement mechanism — RLI, LDA, NetFlow sampling, Multiflow —
//     a spec lists in Deploy.Estimators rides one simulation pass, scored
//     against shared ground truth in ScenarioResult.Comparison.
//   - The scenario engine (ScenarioSpec, Scenarios, RunScenario): named
//     network-wide workload/fault scenarios with registry invariants;
//     cmd/scenario is the CLI.
//   - The measurement service (MeasurementService, ServiceClient,
//     ExportScenarioTrace): the long-lived streaming deployment — routers
//     stream wire frames into cmd/rlird, cmd/loadgen replays captured
//     scenario traffic at line rate, operators query HTTP endpoints.
//
// Command front-ends: cmd/scenario (single runs — the registered scenarios,
// the tandem and fat-tree base specs, ad-hoc spec files), cmd/experiments
// (figures and ablations, the §3.1 placement table among them),
// cmd/tracegen (workload summaries and link traces),
// cmd/rlird + cmd/loadgen (the streaming service and its load generator),
// cmd/rlirfleet (the scatter-gather front-end over several rlird).
// DESIGN.md explains the architecture layer by layer.
package rlir
