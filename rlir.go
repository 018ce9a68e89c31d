package rlir

import (
	"net"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/experiments"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/swp"
	"github.com/netmeasure/rlir/internal/trace"
)

// ---- Packet and flow identity ----

// Addr is an IPv4 address in host byte order.
type Addr = packet.Addr

// FlowKey is the comparable 5-tuple identity used for all per-flow state.
type FlowKey = packet.FlowKey

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// MustParseAddr is ParseAddr that panics on error.
func MustParseAddr(s string) Addr { return packet.MustParseAddr(s) }

// ---- Injection schemes (paper §3.2) ----

// Static is the fixed worst-case 1-and-N scheme.
type Static = core.Static

// Adaptive is RLI's utilization-driven scheme.
type Adaptive = core.Adaptive

// DefaultStatic returns the paper's 1-and-100 configuration.
func DefaultStatic() Static { return core.DefaultStatic() }

// DefaultAdaptive returns the paper's 1-and-10..1-and-300 configuration.
func DefaultAdaptive() Adaptive { return core.DefaultAdaptive() }

// ---- Results ----

// MeanErrCDF builds the CDF of per-flow mean relative errors (Fig 4a form).
func MeanErrCDF(results []core.FlowResult) *stats.CDF { return core.MeanErrCDF(results) }

// ---- Clock models ----

// ClockSource converts true simulation time to an instance's local reading.
type ClockSource = simtime.Clock

// PerfectClock is exact synchronization (the paper's assumption).
type PerfectClock = simtime.PerfectClock

// FixedOffsetClock has a constant synchronization error.
type FixedOffsetClock = simtime.FixedOffsetClock

// ---- Workload generation ----

// DefaultTraceConfig returns the ~22%-of-1Gbps regular workload.
func DefaultTraceConfig() trace.Config { return trace.DefaultConfig() }

// NewTraceGenerator streams a deterministic synthetic trace.
func NewTraceGenerator(cfg trace.Config) *trace.Generator { return trace.NewGenerator(cfg) }

// ---- The tandem experiment (paper Figure 3) ----

// TandemSpec returns the two-switch (Figure 3) base ScenarioSpec at the
// named scale (small, default, full — "full" approximates the paper's 60 s
// of OC-192): regular traffic through an instrumented switch, random cross
// traffic congesting the downstream bottleneck to 93%, static 1-and-100
// injection. RunScenario executes it; the error lists the valid names.
func TandemSpec(scale string) (ScenarioSpec, error) { return scenario.TandemSpec(scale) }

// CrossModel selects the cross-traffic model (ScenarioSpec.Workload.CrossModel).
type CrossModel = scenario.CrossModel

// Cross-traffic models of §4.1.
const (
	CrossUniform = scenario.CrossUniform
	CrossBursty  = scenario.CrossBursty
	CrossNone    = scenario.CrossNone
)

// ---- Fat-tree RLIR deployment (paper Figure 1 / §3.1) ----

// DefaultFatTreeSpec returns the k=4 deployment at moderate load as a
// ScenarioSpec: upstream senders at source ToR uplinks, receivers at cores
// (prefix demux), downstream senders at cores and a receiver at the
// destination ToR demultiplexing with Deploy.Demux (reverse-ecmp, marking,
// oracle, none). RunScenario executes it.
func DefaultFatTreeSpec() ScenarioSpec { return experiments.DefaultFatTreeSpec() }

// ---- Figures and ablations (paper §4 + DESIGN.md) ----

// Figure is a reproduced figure: labelled CDF series plus notes.
type Figure = experiments.Figure

// Fig4a reproduces Figure 4(a): mean-estimate accuracy CDFs.
func Fig4a(base ScenarioSpec) Figure { return experiments.Fig4a(base) }

// Fig4b reproduces Figure 4(b): stddev-estimate accuracy CDFs.
func Fig4b(base ScenarioSpec) Figure { return experiments.Fig4b(base) }

// Fig4c reproduces Figure 4(c): bursty vs random cross traffic.
func Fig4c(base ScenarioSpec) Figure { return experiments.Fig4c(base) }

// Fig5Result is the reproduced Figure 5.
type Fig5Result = experiments.Fig5Result

// Fig5 reproduces Figure 5: reference-packet interference with regular
// traffic loss across a utilization sweep (nil utils uses the paper's
// 0.82..0.98 range).
func Fig5(base ScenarioSpec, utils []float64) Fig5Result { return experiments.Fig5(base, utils) }

// Scalars reproduces the §4.2 quoted numbers.
type Scalars = experiments.Scalars

// RunScalars measures them.
func RunScalars(base ScenarioSpec) Scalars { return experiments.RunScalars(base) }

// DemuxAblation is the A1 table, one ScenarioResult per strategy; its
// Table().Render() prints it.
type DemuxAblation = experiments.DemuxAblation

// AblationDemux runs every downstream demux strategy on an identical
// fat-tree workload (DESIGN.md A1); the error is the spec's validation error.
func AblationDemux(spec ScenarioSpec) (DemuxAblation, error) {
	return experiments.AblationDemux(spec)
}

// EstimatorAblation is the A2 table; its Table().Render() prints it.
type EstimatorAblation = experiments.EstimatorAblation

// AblationEstimators compares interpolation variants (A2).
func AblationEstimators(base ScenarioSpec, util float64) EstimatorAblation {
	return experiments.AblationEstimators(base, util)
}

// ClockAblation is the A3 table; its Table().Render() prints it.
type ClockAblation = experiments.ClockAblation

// AblationClocks sweeps clock imperfections (A3).
func AblationClocks(base ScenarioSpec, util float64) ClockAblation {
	return experiments.AblationClocks(base, util)
}

// BaselineResult is B1: RLIR vs LDA vs Multiflow.
type BaselineResult = experiments.BaselineResult

// RunBaselines co-locates RLIR, LDA and Multiflow on one run (B1).
func RunBaselines(base ScenarioSpec, util float64) BaselineResult {
	return experiments.RunBaselines(base, util)
}

// ---- Localization (DESIGN.md L1, the paper's Figure 1 narrative) ----

// LocalizationResult reports calibration, fault run and verdict.
type LocalizationResult = experiments.LocalizationResult

// DefaultLocalizationConfig returns the k=4 scenario — a hotspot ScenarioSpec
// sourcing every flow under one ToR — with a hop-delay fault at the
// destination pod's aggregation layer.
func DefaultLocalizationConfig() experiments.LocalizationConfig {
	return experiments.DefaultLocalizationConfig()
}

// RunLocalization measures per-core segments of one ToR-to-ToR path twice
// (the config's spec healthy, then with its fault held for the whole run)
// and reports which segments the localizer flags.
func RunLocalization(cfg experiments.LocalizationConfig) (LocalizationResult, error) {
	return experiments.RunLocalization(cfg)
}

// ---- Multi-seed sweeps (the concurrent measurement plane) ----
//
// Every figure and ablation above is a single-seed point estimate. Each is
// also a registered ExperimentTarget whose result exposes its metrics as a
// Table; Sweep fans a target across N independent simulations (seeds derived
// via SplitMix64) and folds the tables cell by cell into mean ± 95% CI.
// RunScenarioMulti sweeps one spec and also merges the runs' per-flow
// telemetry through the internal/collector plane.

// MultiOpts sizes a multi-seed sweep (Seeds default 8, Workers default
// GOMAXPROCS).
type MultiOpts = scenario.MultiOpts

// MetricCI is one metric's across-seed mean ± 95% CI.
type MetricCI = stats.MetricCI

// TableCI is a result's Table folded across seeds: every cell a MetricCI, looked up
// with Cell(row, column) and printed with Render — the one table renderer,
// which also prints a single run's Table as its N = 1 fold.
type TableCI = stats.TableCI

// ExperimentTarget is one regenerable figure, quoted table or ablation: its
// cmd/experiments -fig ID and a Run whose result's Table is printed for one
// run (Table().Render()) and folded across seeds by Sweep.
type ExperimentTarget = experiments.Target

// ExperimentTargets returns every target in cmd/experiments -all order.
func ExperimentTargets() []ExperimentTarget { return experiments.Targets() }

// ParseExperimentTarget returns the target with the given ID; the error
// lists the valid ones.
func ParseExperimentTarget(id string) (ExperimentTarget, error) { return experiments.ParseTarget(id) }

// Sweep regenerates one target at N derived seeds in parallel and reports
// every metric as mean ± 95% CI. The result carries its own seed count and
// is identical for any worker count.
func Sweep(t ExperimentTarget, base ScenarioSpec, opts MultiOpts) (TableCI, error) {
	return experiments.Sweep(t, base, opts)
}

// ---- Unified estimator layer (internal/measure) ----
//
// Every latency-measurement mechanism — RLI interpolation, the LDA
// aggregate sketch, NetFlow-style packet sampling, the Multiflow
// two-timestamp estimator — implements one pluggable API: a zero-alloc
// per-packet Tap plus a Finalize returning a Report with per-flow
// estimates, an aggregate and overhead accounting. A scenario spec declares
// its estimator set (ScenarioSpec.Deploy.Estimators) and the engine attaches
// all of them to the same single simulation pass through a shared tap
// dispatch, scoring every mechanism against shared ground truth in one
// comparison table (ScenarioResult.Comparison).

// EstimatorNames returns the registered estimator names, "rli" first.
func EstimatorNames() []string { return measure.Names() }

// EstimatorRegistered reports whether name is a registered estimator.
func EstimatorRegistered(name string) bool { return measure.Registered(name) }

// ParseEstimatorList splits and validates a comma-separated estimator
// list (the CLI -estimators flag format); unknown names fail listing the
// registered ones.
func ParseEstimatorList(s string) ([]string, error) { return measure.ParseList(s) }

// ---- Scenario engine (declarative network-wide workloads) ----
//
// A Scenario is a versioned declarative spec — topology, workload mix,
// scheduled fault injections, RLIR deployment — composed over the whole
// substrate by one engine, plus an invariant check that makes the registry
// a correctness harness. cmd/scenario is the CLI front-end; the CI
// scenario-matrix job runs every registered scenario.

// ScenarioSpec is the declarative scenario description.
type ScenarioSpec = scenario.Spec

// ScenarioResult is one scenario run's outcome.
type ScenarioResult = scenario.Result

// ScenarioTelemetrySpec models telemetry-export loss applied to a finished
// run's estimator reports (ScenarioSpec.Telemetry): export frames of
// FrameRecords per-flow records are each dropped with probability LossRate
// before scoring.
type ScenarioTelemetrySpec = scenario.TelemetrySpec

// ScenarioMultiOpts sizes a multi-seed scenario sweep; it is MultiOpts.
type ScenarioMultiOpts = MultiOpts

// Scenarios returns every registered scenario in name order.
func Scenarios() []scenario.Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns one registered scenario.
func ScenarioByName(name string) (scenario.Scenario, bool) { return scenario.Get(name) }

// DefaultScenarioSpec returns a valid fat-tree spec to build variations
// from.
func DefaultScenarioSpec() ScenarioSpec { return scenario.DefaultSpec() }

// DecodeScenarioSpec parses and validates a JSON scenario spec.
func DecodeScenarioSpec(data []byte) (ScenarioSpec, error) { return scenario.DecodeJSON(data) }

// RunScenario executes one scenario spec at its spec seed.
func RunScenario(spec ScenarioSpec) (*ScenarioResult, error) { return scenario.Run(spec) }

// RunScenarioMulti sweeps one scenario spec across derived seeds in
// parallel.
func RunScenarioMulti(spec ScenarioSpec, opts ScenarioMultiOpts) (*scenario.MultiResult, error) {
	return scenario.RunMulti(spec, opts)
}

// ---- Adversarial & trace-driven scenarios ----
//
// Three spec extensions stress measurement trustworthiness rather than
// accuracy: a compromised switch that delays only the packets it predicts
// won't be measured (countered by secret-key hash sampling), replay of a
// recorded per-link delay/loss time series, and RepFlow-style flow
// replication across distinct ECMP paths. The registered scenarios
// adversarial-delay, trace-replay and repflow exercise them under CI.

// ScenarioLinkTraceSpec replays a recorded per-link delay/loss time series
// on one core down-link (ScenarioSpec.LinkTrace).
type ScenarioLinkTraceSpec = scenario.LinkTraceSpec

// ScenarioLinkTraceSampleSpec is one inline link-trace row in spec form.
type ScenarioLinkTraceSampleSpec = scenario.LinkTraceSampleSpec

// LinkTraceConfig parameterizes synthetic link-trace generation
// (cmd/tracegen -emit link).
type LinkTraceConfig = trace.LinkTraceConfig

// ParseLinkTrace parses a link trace in either tracegen-producible encoding
// (JSON sniffed by its leading '{', CSV otherwise). Malformed input is an
// error naming the offending row — never a panic.
func ParseLinkTrace(data []byte) (*trace.LinkTrace, error) { return trace.ParseLinkTrace(data) }

// GenLinkTrace synthesizes a deterministic link trace from the config — the
// stand-in for a recorded link time series.
func GenLinkTrace(c LinkTraceConfig) (*trace.LinkTrace, error) { return trace.GenLinkTrace(c) }

// ---- Measurement service (internal/service, cmd/rlird) ----
//
// The long-lived streaming form of the collection tier: routers (or
// cmd/loadgen replaying a scenario trace) stream collector wire frames over
// TCP/Unix sockets into a sharded collector, and operators query per-flow
// aggregates, per-router aggregates, the streaming estimator comparison,
// health and Prometheus-style metrics over HTTP. Streamed aggregates are
// bit-identical to the batch engine's for the same sample stream.

// ServiceConfig addresses and sizes the measurement service.
type ServiceConfig = service.Config

// MeasurementService is a running rlird instance.
type MeasurementService = service.Server

// ServiceClient is an exporter-side connection streaming wire frames into a
// service.
type ServiceClient = service.Client

// NewMeasurementService starts a service (listeners, collector shards,
// query API). Stop it with Shutdown.
func NewMeasurementService(cfg ServiceConfig) (*MeasurementService, error) { return service.New(cfg) }

// LoadServiceConfig reads a JSON service config file (cmd/rlird -config).
func LoadServiceConfig(path string) (ServiceConfig, error) { return service.LoadConfig(path) }

// DialService connects a client to a service ingest listener ("tcp" or
// "unix").
func DialService(network, addr string, batch int) (*ServiceClient, error) {
	return service.Dial(network, addr, batch)
}

// NewServiceClient wraps an established connection as a service client.
func NewServiceClient(conn net.Conn, batch int) *ServiceClient {
	return service.NewClient(conn, batch)
}

// ServiceDialOptions configures DialServiceWith: bounded connect attempts
// with exponential backoff and jitter, and optionally the reliable
// (sliding-window) framing with a seeded loss model for soaks.
type ServiceDialOptions = service.DialOptions

// TransportImpairment is a seeded loss model (drop/duplicate/reorder/delay
// probabilities) applied to a reliable connection's outbound segments —
// cmd/loadgen's -loss soak.
type TransportImpairment = swp.ImpairConfig

// DialServiceWith connects a client to a service ingest listener per o,
// retrying failed dials with exponential backoff before giving up.
func DialServiceWith(o ServiceDialOptions) (*ServiceClient, error) {
	return service.DialWith(o)
}

// CollectorSample is one exported per-packet latency estimate (the wire
// unit RLI receivers stream to the collection tier).
type CollectorSample = collector.Sample

// ScenarioTrace is a captured scenario export stream: the replay unit of
// cmd/loadgen and the service equivalence tests.
type ScenarioTrace = scenario.Trace

// ExportScenarioTrace runs a scenario once and captures the samples and
// NetFlow records its instruments exported, alongside the normal result.
func ExportScenarioTrace(spec ScenarioSpec, seed int64) (*ScenarioTrace, error) {
	return scenario.Export(spec, seed)
}

// CompareStreamedFlows scores a collector flow table against the ground
// truth it carries in-band — the streaming counterpart of a run's
// ScenarioResult.Comparison rows.
func CompareStreamedFlows(name string, aggs []collector.FlowAgg) measure.Comparison {
	return measure.CompareFlowAggs(name, aggs)
}

// NewPacer creates a pacer admitting rate units/second (rate <= 0 returns
// the nil, unlimited pacer).
func NewPacer(rate float64) *runner.Pacer { return runner.NewPacer(rate) }

// ---- Distributed collection tier (internal/fleet, cmd/rlirfleet) ----
//
// A fleet is N rlird instances behind one scatter-gather query front-end.
// Exporters shard their stream with a router (NewFleetRouter) — every
// flow's traffic lands wholly on one instance (consistent flow-key
// hashing), so merging the instances' raw snapshots reproduces the
// single-node flow table bit-for-bit. The front-end (NewFleetFrontend)
// serves the same HTTP query API as a single rlird, answered for the whole
// fleet, degrading gracefully when instances drop out.

// FleetRouterConfig configures NewFleetRouter: endpoints, connections per
// endpoint, batch/queue bounds and the redial budget.
type FleetRouterConfig = fleet.Config

// FleetSink is one wire connection the router shards onto (ServiceClient
// implements it).
type FleetSink = fleet.Sink

// FleetFrontendConfig configures NewFleetFrontend: instance base URLs and
// the fan-out timeout.
type FleetFrontendConfig = fleet.FrontendConfig

// FleetHealth is the front-end's aggregate /healthz response.
type FleetHealth = fleet.HealthJSON

// FleetPartition returns which of n instances owns a flow — the consistent
// assignment the fleet router (so cmd/loadgen and fleet specs) ships it by.
func FleetPartition(key FlowKey, n int) int { return fleet.Partition(key, n) }

// FleetSinkIndex maps a flow onto the (endpoint, connection) grid; with one
// endpoint it reduces to the per-connection split loadgen historically used.
func FleetSinkIndex(key FlowKey, endpoints, connsPerEndpoint int) (endpoint, conn int) {
	return fleet.SinkIndex(key, endpoints, connsPerEndpoint)
}

// NewFleetRouter validates the config, dials the whole connection grid
// eagerly and starts the per-connection senders.
func NewFleetRouter(cfg FleetRouterConfig) (*fleet.Router, error) { return fleet.NewRouter(cfg) }

// NewFleetFrontend validates the instance URLs and builds the
// scatter-gather front-end (serve its Handler over HTTP).
func NewFleetFrontend(cfg FleetFrontendConfig) (*fleet.Frontend, error) {
	return fleet.NewFrontend(cfg)
}

// ---- Convenience ----

// Microseconds converts a duration to float64 microseconds, the unit the
// paper quotes latencies in.
func Microseconds(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
