package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/topo"
	"github.com/netmeasure/rlir/internal/trace"
)

// SpecVersion is the current Spec schema version. Encoded specs carry it so
// a future incompatible change can be detected instead of misread.
const SpecVersion = 1

// Topology kinds.
const (
	// TopoTandem is the paper's Figure-3 shape: two switches in series, the
	// second link the bottleneck where cross traffic merges.
	TopoTandem = "tandem"
	// TopoFatTree is the k-ary fat-tree of Figure 1.
	TopoFatTree = "fattree"
)

// The values Spec.Engine accepts. There is one event engine and every run
// uses it; the names are what spec files and the pipeline benchmark's
// parallel leg (bench/, which sets EngineParallel with Partitions = 2) still
// write.
const (
	// Deprecated: selects nothing. It goes with Spec.Engine.
	EngineSequential = "sequential"
	// Deprecated: selects nothing — the multi-lane engine it named is deleted
	// (DESIGN.md "One event engine"). It goes with Spec.Engine.
	EngineParallel = "parallel"
)

// Workload patterns (fat-tree only; the tandem workload is fixed by shape).
const (
	// PatternConverging sends flows from every other pod's hosts to the
	// monitored ToR's hosts — the paper's T7 evaluation shape.
	PatternConverging = "converging"
	// PatternAllPairs sends flows between uniformly random inter-pod host
	// pairs; every ToR is monitored.
	PatternAllPairs = "allpairs"
	// PatternIncast fans flows from IncastFanIn fixed source hosts into one
	// destination host, oversubscribing its access link.
	PatternIncast = "incast"
	// PatternHotspot skews flow sources: a HotspotSkew fraction of flows
	// originate under one hot ToR instead of uniformly.
	PatternHotspot = "hotspot"
)

// Fault kinds.
const (
	// FaultLinkDegrade multiplies one core down-link's rate by RateFactor
	// for the window — a renegotiated/dirty-optics link.
	FaultLinkDegrade = "link-degrade"
	// FaultHopDelay adds Extra per-packet processing delay at one
	// aggregation switch to every packet arriving in the window [Start,
	// End) — a misbehaving lookup path.
	// Aggregation switches sit inside the downstream measured segment
	// (between the core's egress timestamp and the monitored ToR), so the
	// added delay is visible to RLIR receivers. The localization experiment
	// (L1) is this fault held for a whole run.
	FaultHopDelay = "hop-delay"
)

// Injection schemes.
const (
	SchemeStatic   = "static"
	SchemeAdaptive = "adaptive"
	// SchemeNone deploys no RLI sender: the uninstrumented baseline of
	// Figure 5. Tandem only — a fat-tree deployment has no such form.
	SchemeNone = "none"
)

// Downstream demultiplexing strategies (§3.1 names).
const (
	DemuxReverseECMP = "reverse-ecmp"
	DemuxMark        = "marking"
	DemuxOracle      = "oracle"
	DemuxNone        = "none"
)

// TopologySpec describes the physical network.
type TopologySpec struct {
	// Kind is TopoTandem or TopoFatTree.
	Kind string `json:"kind"`
	// K is the fat-tree arity (even, >= 4 for distinct core paths). Ignored
	// for tandem.
	K int `json:"k,omitempty"`
	// LinkBps is the line rate of every link.
	LinkBps float64 `json:"link_bps"`
	// Propagation is the per-link propagation delay.
	Propagation time.Duration `json:"propagation_ns,omitempty"`
	// ProcDelay is the per-switch processing delay.
	ProcDelay time.Duration `json:"proc_delay_ns,omitempty"`
	// QueueBytes bounds every output queue (0 = unbounded).
	QueueBytes int `json:"queue_bytes,omitempty"`
	// CoreSkew differentiates physical core paths: core (j,i)'s down-link
	// toward each monitored pod gets (j*K/2+i)*CoreSkew extra propagation.
	// Nonzero skew is what makes demultiplexing matter (§3.1).
	CoreSkew time.Duration `json:"core_skew_ns,omitempty"`
}

// WorkloadSpec describes the offered traffic.
type WorkloadSpec struct {
	// Pattern selects the fat-tree traffic shape (default converging).
	Pattern string `json:"pattern,omitempty"`
	// LoadFrac is the offered load as a fraction of the relevant capacity:
	// the monitored ToRs' aggregate host bandwidth for converging/hotspot/
	// allpairs, the single destination host link for incast (values > 1
	// model oversubscription).
	LoadFrac float64 `json:"load_frac"`
	// FlowAlpha / FlowMaxLen override the bounded-Pareto flow-length
	// distribution (0 keeps trace.DefaultFlowLenDist).
	FlowAlpha  float64 `json:"flow_alpha,omitempty"`
	FlowMaxLen int     `json:"flow_max_len,omitempty"`
	// MeanGap overrides the mean in-flow packet spacing (0 keeps default).
	MeanGap time.Duration `json:"mean_gap_ns,omitempty"`
	// IncastFanIn is the number of fixed source hosts for PatternIncast.
	IncastFanIn int `json:"incast_fan_in,omitempty"`
	// HotspotSkew is the fraction of flows sourced under the hot ToR for
	// PatternHotspot.
	HotspotSkew float64 `json:"hotspot_skew,omitempty"`
	// BurstOn/BurstPeriod, when set, gate the workload through on/off
	// microburst periods (admitted only during the first BurstOn of every
	// BurstPeriod) at the same average offered load. On the tandem topology
	// they shape the cross traffic's bursty model instead.
	BurstOn     time.Duration `json:"burst_on_ns,omitempty"`
	BurstPeriod time.Duration `json:"burst_period_ns,omitempty"`
	// DestPod / DestToR locate the monitored ToR for single-destination
	// patterns (defaults: last pod, ToR 0). DestPod -1 is the "last pod"
	// sentinel DecodeJSON gives an omitted dest_pod, so the field is always
	// encoded: with omitempty, pod 0 would re-decode as the last pod.
	DestPod int `json:"dest_pod"`
	DestToR int `json:"dest_tor,omitempty"`
	// CrossModel / CrossUtil drive the tandem topology's cross traffic:
	// the model thins a 1.5x-offered cross trace to hit CrossUtil at the
	// bottleneck. Ignored on fat-trees.
	CrossModel CrossModel `json:"cross_model,omitempty"`
	CrossUtil  float64    `json:"cross_util,omitempty"`
	// Replicate, when true, sends every flow twice (RepFlow-style): the
	// original plus a replica under a source port differing in one bit, so
	// ECMP usually spreads the pair across distinct core paths and the
	// logical flow's latency is the first arrival's. Fat-tree only; the run
	// gains a RepFlowReport scoring attribution under replication.
	Replicate bool `json:"replicate,omitempty"`
}

// FaultSpec schedules one mid-run fault.
type FaultSpec struct {
	// Kind is FaultLinkDegrade or FaultHopDelay.
	Kind string `json:"kind"`
	// CoreJ/CoreI address FaultLinkDegrade's core switch (j, i), j,i in
	// [0, K/2).
	CoreJ int `json:"core_j,omitempty"`
	CoreI int `json:"core_i,omitempty"`
	// DownPod selects which pod's down-link FaultLinkDegrade degrades.
	DownPod int `json:"down_pod,omitempty"`
	// AggPod/AggIdx address FaultHopDelay's aggregation switch.
	AggPod int `json:"agg_pod,omitempty"`
	AggIdx int `json:"agg_idx,omitempty"`
	// Start/End bound the fault window within the run, Start < End.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// RateFactor is FaultLinkDegrade's rate multiplier in (0, 1).
	RateFactor float64 `json:"rate_factor,omitempty"`
	// Extra is FaultHopDelay's added processing delay.
	Extra time.Duration `json:"extra_ns,omitempty"`
}

// site identifies what a fault acts on, for overlap checking.
func (f FaultSpec) site() string {
	if f.Kind == FaultLinkDegrade {
		return fmt.Sprintf("%s/core%d.%d/pod%d", f.Kind, f.CoreJ, f.CoreI, f.DownPod)
	}
	return fmt.Sprintf("%s/agg%d.%d", f.Kind, f.AggPod, f.AggIdx)
}

// ClockSpec describes an RLI receiver's local clock (simtime's clock
// models). All zero is perfect synchronization; an offset alone is a fixed
// offset; drift without a sync interval is a free-running oscillator
// starting at the offset; a sync interval makes it an IEEE 1588 (PTP)
// clock resynchronized to within ±SyncJitter every SyncInterval.
type ClockSpec struct {
	Offset       time.Duration `json:"offset_ns,omitempty"`
	DriftPPM     float64       `json:"drift_ppm,omitempty"`
	SyncInterval time.Duration `json:"sync_interval_ns,omitempty"`
	SyncJitter   time.Duration `json:"sync_jitter_ns,omitempty"`
}

// ptpJitterKey seeds every PTP clock's per-interval residuals: a fixed key,
// so a clock spec names one reproducible clock at any run seed.
const ptpJitterKey = 3

// Clock returns the simtime clock c describes; a nil c is perfect.
func (c *ClockSpec) Clock() simtime.Clock {
	switch {
	case c == nil || *c == ClockSpec{}:
		return simtime.PerfectClock{}
	case c.SyncInterval > 0:
		return simtime.PTPClock{DriftPPM: c.DriftPPM, SyncInterval: c.SyncInterval, SyncJitter: c.SyncJitter, Seed: ptpJitterKey}
	case c.DriftPPM != 0:
		return simtime.DriftingClock{Offset: c.Offset, DriftPPM: c.DriftPPM}
	default:
		return simtime.FixedOffsetClock{Offset: c.Offset}
	}
}

// DeploymentSpec describes the RLIR measurement deployment.
type DeploymentSpec struct {
	// Scheme is SchemeStatic, SchemeAdaptive or (tandem only) SchemeNone.
	// Every adaptive sender, in either topology, reads a utilization meter
	// on its own link.
	Scheme string `json:"scheme"`
	// StaticN is the static scheme's 1-and-N gap (default 50).
	StaticN int `json:"static_n,omitempty"`
	// MinGap/MaxGap bound the adaptive scheme (defaults 10/300).
	MinGap int `json:"min_gap,omitempty"`
	MaxGap int `json:"max_gap,omitempty"`
	// Interpolation selects every RLI receiver's estimator variant: linear
	// (RLI's, the default), left, right or nearest (ablation A2).
	Interpolation string `json:"interpolation,omitempty"`
	// ReceiverClock, when set, replaces every RLI receiver's perfectly
	// synchronized clock (ablation A3); senders keep perfect clocks.
	ReceiverClock *ClockSpec `json:"receiver_clock,omitempty"`
	// Demux selects the downstream demultiplexing strategy (default
	// reverse-ecmp, the paper's computable option).
	Demux string `json:"demux,omitempty"`
	// Estimators lists the measurement mechanisms attached to the run's
	// single simulation pass (internal/measure registry names). Empty runs
	// the full default comparison set; "rli" — the deployment under test —
	// is always included. Baseline estimators are passive taps, so adding
	// them never perturbs the simulation or the RLI results.
	Estimators []string `json:"estimators,omitempty"`
	// MaxInstances budgets the deployment: Validate fails when the spec
	// needs more sender+receiver instances than this. 0 = unlimited.
	MaxInstances int `json:"max_instances,omitempty"`
}

// interpolation resolves Interpolation; empty is linear.
func (d DeploymentSpec) interpolation() (core.Estimator, error) {
	if d.Interpolation == "" {
		return core.Linear, nil
	}
	return core.ParseEstimator(d.Interpolation)
}

// TelemetrySpec models telemetry-export loss applied to a finished run's
// estimator reports. Per-flow records travel from the measurement points to
// the collection tier in export frames of FrameRecords records, and each
// frame is lost independently with probability LossRate; an aggregate-only
// mechanism (LDA) exports its whole deliverable as one frame. The simulation
// itself is untouched — the run gains a second comparison table scoring each
// mechanism's surviving telemetry against the same ground truth, so the
// result quantifies how every estimator's accuracy degrades when its export
// path drops data (and what the swp reliable transport buys back).
type TelemetrySpec struct {
	// LossRate is the per-frame drop probability in [0, 1).
	LossRate float64 `json:"loss_rate"`
	// FrameRecords is how many per-flow records share one export frame
	// (0 selects DefaultTelemetryFrameRecords).
	FrameRecords int `json:"frame_records,omitempty"`
}

// FleetSpec replays the run's export stream through the production
// collection chain, in process: fleet.Router shards it across Instances
// rlird servers, and a fleet.Frontend answers for them. The simulation is
// untouched; the run gains a FleetReport proving the front-end's /flows
// byte-identical to the single-node table's, and — when FailInstance is set
// — quantifying what every estimator loses when that instance dies with its
// data (scored against the unchanged ground truth).
type FleetSpec struct {
	// Instances is the fleet size (>= 1).
	Instances int `json:"instances"`
	// FailInstance, when set, kills that instance after ingest: the
	// front-end no longer reaches it, and every estimator is re-scored on
	// what the surviving instances hold.
	FailInstance *int `json:"fail_instance,omitempty"`
}

// AdversarySpec compromises one aggregation switch: during the window it
// adds Extra delay to every packet EXCEPT those it predicts will be
// measured — RLI reference packets (identifiable on the wire by kind) and
// the periodic sampler's subset (every PredictRate-th packet ID, computable
// from headers alone). The site is the same one FaultHopDelay uses, inside
// the downstream measured segment, so an honest estimator looking at the
// right packets WOULD see the delay; whether it does is the detection
// question the run's DetectionReport answers. Secret-key hash sampling
// ("hash-sample") is the counter: the switch cannot predict its subset, so
// the hidden delay lands on sampled packets and is exposed.
type AdversarySpec struct {
	// AggPod/AggIdx address the compromised aggregation switch.
	AggPod int `json:"agg_pod,omitempty"`
	AggIdx int `json:"agg_idx,omitempty"`
	// Extra is the hidden per-packet delay added to unmeasured traffic.
	Extra time.Duration `json:"extra_ns"`
	// Start/End bound the compromised window within the run, Start < End.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// PredictRate is the 1-in-N periodic sampling rate the switch assumes
	// when sparing predicted samples (0: measure.DefaultSampleRate).
	PredictRate int `json:"predict_rate,omitempty"`
}

// LinkTraceSampleSpec is one inline link-trace row (trace.LinkSample in
// spec form).
type LinkTraceSampleSpec struct {
	// T is the row's offset from run start.
	T time.Duration `json:"t_ns"`
	// Delay is the extra one-way delay in effect from T.
	Delay time.Duration `json:"delay_ns"`
	// Loss is the drop probability in [0, 1] in effect from T.
	Loss float64 `json:"loss"`
}

// LinkTraceSpec replays a recorded per-link time series on one core
// down-link: each row sets the link's extra one-way delay and loss
// probability from its offset until the next row (trace.LinkTrace
// semantics). Registered scenarios carry the rows inline so they are
// self-contained; cmd/scenario -link-trace loads them from a
// tracegen-producible JSON/CSV file instead.
type LinkTraceSpec struct {
	// CoreJ/CoreI/DownPod address the emulated core down-link, the same way
	// FaultLinkDegrade does.
	CoreJ   int `json:"core_j,omitempty"`
	CoreI   int `json:"core_i,omitempty"`
	DownPod int `json:"down_pod,omitempty"`
	// Samples is the time series, strictly increasing in T.
	Samples []LinkTraceSampleSpec `json:"samples"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Version  int            `json:"version"`
	Name     string         `json:"name"`
	Topology TopologySpec   `json:"topology"`
	Workload WorkloadSpec   `json:"workload"`
	Faults   []FaultSpec    `json:"faults,omitempty"`
	Deploy   DeploymentSpec `json:"deploy"`
	// Telemetry, when set, re-scores every estimator after seeded export
	// loss (Result.Telemetry carries the degraded comparison).
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Fleet, when set, runs the collected stream through an in-process
	// router → rlird → front-end fleet (Result.FleetReport).
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Adversary, when set, compromises one aggregation switch with selective
	// delay; the run gains a paired-clean-run DetectionReport scoring every
	// estimator on whether it exposed the hidden delay (Result.Detection).
	Adversary *AdversarySpec `json:"adversary,omitempty"`
	// LinkTrace, when set, drives one core down-link's delay/loss from a
	// recorded time series instead of the synthetic constants
	// (Result.LinkTrace reports what the emulation did).
	LinkTrace *LinkTraceSpec `json:"link_trace,omitempty"`
	// Duration is the trace window length.
	Duration time.Duration `json:"duration_ns"`
	// Seed drives every random choice; derived per-run seeds come from it
	// in multi-seed sweeps.
	Seed int64 `json:"seed"`
	// Deprecated: Engine is validated, echoed in Result.Spec and otherwise
	// ignored: every run uses the one event engine. It remains only because
	// bench/ sets it and DecodeJSON rejects unknown fields; the
	// benchmark-type PR that retires sim_par2_pkts_per_s (ROADMAP item 2,
	// PR B) deletes it with Partitions and both Engine* constants.
	Engine string `json:"engine,omitempty"`
	// Deprecated: Partitions is inert like Engine, for the same reason and
	// until the same PR. Validate still holds it to [0, K+1] and to
	// Engine == EngineParallel.
	Partitions int `json:"partitions,omitempty"`
}

// DefaultSpec returns a valid k=4 fat-tree converging scenario to build
// variations from.
func DefaultSpec() Spec {
	return Spec{
		Version: SpecVersion,
		Name:    "default",
		Topology: TopologySpec{
			Kind:        TopoFatTree,
			K:           4,
			LinkBps:     1e9,
			Propagation: time.Microsecond,
			ProcDelay:   500 * time.Nanosecond,
			QueueBytes:  256 << 10,
		},
		Workload: WorkloadSpec{
			Pattern:  PatternConverging,
			LoadFrac: 0.55,
			DestPod:  -1, // resolved to K-1
		},
		Deploy: DeploymentSpec{
			Scheme:  SchemeStatic,
			StaticN: 50,
			Demux:   DemuxReverseECMP,
		},
		Duration: 300 * time.Millisecond,
		Seed:     1,
	}
}

// EncodeJSON renders the spec as indented JSON (the flag/file front-end
// format; durations are nanosecond integers).
func (s Spec) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeJSON parses and validates a JSON spec. Unknown fields are rejected
// — a misspelled knob must fail loudly, not silently run a different
// scenario than the one written.
func DecodeJSON(data []byte) (Spec, error) {
	var s Spec
	// An omitted dest_pod means the documented default (the last pod, the
	// -1 sentinel), not pod 0; an explicit "dest_pod": 0 still selects
	// pod 0.
	s.Workload.DestPod = -1
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// half returns K/2, the fat-tree's per-layer fan-out.
func (s Spec) half() int { return s.Topology.K / 2 }

// destPod resolves the default destination pod (last pod).
func (s Spec) destPod() int {
	if s.Workload.DestPod < 0 {
		return s.Topology.K - 1
	}
	return s.Workload.DestPod
}

// EffectiveEstimators resolves the deployment's estimator list: an empty
// spec list selects the full registered comparison set, and "rli" — the
// mechanism whose deployment the spec describes — is always present and
// listed first. Order is deterministic and duplicate-free; it is the order
// of the result's comparison table.
func (s Spec) EffectiveEstimators() []string {
	if len(s.Deploy.Estimators) == 0 {
		return measure.Names()
	}
	out := []string{"rli"}
	seen := map[string]bool{"rli": true}
	for _, n := range s.Deploy.Estimators {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// monitoredToRs returns the (pod, tor) pairs carrying downstream receivers.
func (s Spec) monitoredToRs() [][2]int {
	if s.Workload.Pattern == PatternAllPairs {
		var out [][2]int
		for p := 0; p < s.Topology.K; p++ {
			for e := 0; e < s.half(); e++ {
				out = append(out, [2]int{p, e})
			}
		}
		return out
	}
	return [][2]int{{s.destPod(), s.Workload.DestToR}}
}

// Instances returns the number of measurement instances (RLI senders plus
// receivers) the deployment needs — the quantity DeploymentSpec.MaxInstances
// budgets. A tandem needs one sender and one receiver, or the receiver
// alone under SchemeNone.
func (s Spec) Instances() int {
	if s.Topology.Kind == TopoTandem {
		if s.Deploy.Scheme == SchemeNone {
			return 1
		}
		return 2
	}
	k, h := s.Topology.K, s.half()
	monitored := s.monitoredToRs()
	pods := map[int]bool{}
	for _, m := range monitored {
		pods[m[0]] = true
	}
	sourceToRs := k * h // allpairs: every ToR sends
	if s.Workload.Pattern != PatternAllPairs {
		sourceToRs = (k - 1) * h // all but the destination pod
	}
	upSenders := sourceToRs * h      // one per ToR uplink
	coreReceivers := h * h           // one per core
	downSenders := h * h * len(pods) // one per core down-port toward a monitored pod
	downReceivers := len(monitored)  // one per monitored ToR
	return upSenders + coreReceivers + downSenders + downReceivers
}

// Validate checks the spec and returns the first error found. Every
// rejection names the offending field so a CLI/CI user can fix the spec
// without reading engine code.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: spec version %d, this engine speaks version %d", s.Version, SpecVersion)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", s.Duration)
	}
	t := s.Topology
	switch t.Kind {
	case TopoTandem:
		if len(s.Faults) > 0 {
			return fmt.Errorf("scenario: faults target core switches and need a fattree topology")
		}
	case TopoFatTree:
		tc := topo.DefaultConfig()
		tc.K = t.K
		tc.LinkBps = t.LinkBps
		if err := tc.Validate(); err != nil {
			return err
		}
		if t.K < 4 {
			return fmt.Errorf("scenario: fattree K=%d has no distinct core paths; need K >= 4", t.K)
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %q (valid: %s, %s)", t.Kind, TopoTandem, TopoFatTree)
	}
	if t.LinkBps <= 0 {
		return fmt.Errorf("scenario: non-positive link rate %v", t.LinkBps)
	}
	if t.Propagation < 0 || t.ProcDelay < 0 || t.CoreSkew < 0 {
		return fmt.Errorf("scenario: negative topology delay (propagation=%v proc=%v skew=%v)",
			t.Propagation, t.ProcDelay, t.CoreSkew)
	}
	if t.QueueBytes < 0 {
		return fmt.Errorf("scenario: negative queue bound %d", t.QueueBytes)
	}
	switch s.Engine {
	case "", EngineSequential:
		if s.Partitions != 0 {
			return fmt.Errorf("scenario: partitions=%d requires engine %q", s.Partitions, EngineParallel)
		}
	case EngineParallel:
		if t.Kind != TopoFatTree {
			return fmt.Errorf("scenario: engine %q requires a fattree topology; got %q", EngineParallel, t.Kind)
		}
		if s.Partitions < 0 || s.Partitions > t.K+1 {
			return fmt.Errorf("scenario: partitions %d outside [0, K+1=%d]", s.Partitions, t.K+1)
		}
	default:
		return fmt.Errorf("scenario: unknown engine %q (valid: %s, %s)", s.Engine, EngineSequential, EngineParallel)
	}
	if err := s.validateWorkload(); err != nil {
		return err
	}
	if err := s.validateFaults(); err != nil {
		return err
	}
	if t := s.Telemetry; t != nil {
		if t.LossRate < 0 || t.LossRate >= 1 {
			return fmt.Errorf("scenario: telemetry loss rate %v outside [0, 1)", t.LossRate)
		}
		if t.FrameRecords < 0 {
			return fmt.Errorf("scenario: negative telemetry frame_records %d", t.FrameRecords)
		}
	}
	if f := s.Fleet; f != nil {
		if f.Instances < 1 {
			return fmt.Errorf("scenario: fleet instances %d < 1", f.Instances)
		}
		if fi := f.FailInstance; fi != nil && (*fi < 0 || *fi >= f.Instances) {
			return fmt.Errorf("scenario: fleet fail_instance %d outside [0, %d)", *fi, f.Instances)
		}
	}
	if a := s.Adversary; a != nil {
		if t.Kind != TopoFatTree {
			return fmt.Errorf("scenario: adversary compromises an aggregation switch and needs a fattree topology")
		}
		h := s.half()
		if a.AggPod < 0 || a.AggPod >= t.K || a.AggIdx < 0 || a.AggIdx >= h {
			return fmt.Errorf("scenario: adversary targets aggregation switch (%d,%d) outside pods [0,%d) x aggs [0,%d)",
				a.AggPod, a.AggIdx, t.K, h)
		}
		if a.Extra <= 0 {
			return fmt.Errorf("scenario: adversary adds non-positive delay %v", a.Extra)
		}
		if a.Start < 0 || a.End <= a.Start {
			return fmt.Errorf("scenario: adversary window [%v, %v) is empty or negative", a.Start, a.End)
		}
		if a.End > s.Duration {
			return fmt.Errorf("scenario: adversary window ends at %v, past the %v run", a.End, s.Duration)
		}
		if a.PredictRate < 0 {
			return fmt.Errorf("scenario: negative adversary predict_rate %d", a.PredictRate)
		}
	}
	if l := s.LinkTrace; l != nil {
		if t.Kind != TopoFatTree {
			return fmt.Errorf("scenario: link_trace emulates a core down-link and needs a fattree topology")
		}
		h := s.half()
		if l.CoreJ < 0 || l.CoreJ >= h || l.CoreI < 0 || l.CoreI >= h {
			return fmt.Errorf("scenario: link_trace targets core (%d,%d) outside the %dx%d core grid", l.CoreJ, l.CoreI, h, h)
		}
		if l.DownPod < 0 || l.DownPod >= t.K {
			return fmt.Errorf("scenario: link_trace down-pod %d outside [0, %d)", l.DownPod, t.K)
		}
		if _, err := l.trace(); err != nil {
			return err
		}
	}
	return s.validateDeploy()
}

func (s Spec) validateWorkload() error {
	w := s.Workload
	if w.LoadFrac <= 0 || w.LoadFrac > 4 {
		return fmt.Errorf("scenario: load fraction %v outside (0, 4]", w.LoadFrac)
	}
	if w.FlowAlpha < 0 || w.FlowMaxLen < 0 || w.MeanGap < 0 {
		return fmt.Errorf("scenario: negative flow-length/gap override")
	}
	if (w.BurstOn == 0) != (w.BurstPeriod == 0) {
		return fmt.Errorf("scenario: burst_on and burst_period must be set together")
	}
	if w.BurstOn < 0 || w.BurstPeriod < 0 || w.BurstOn > w.BurstPeriod {
		return fmt.Errorf("scenario: invalid burst timing on=%v period=%v", w.BurstOn, w.BurstPeriod)
	}
	if s.Topology.Kind == TopoTandem {
		if w.Replicate {
			return fmt.Errorf("scenario: replicate needs a fattree topology (the tandem has a single path)")
		}
		switch w.CrossModel {
		case "", CrossNone, CrossUniform, CrossBursty:
		default:
			// string(): String() gives the legend name, not the spec value.
			return fmt.Errorf("scenario: unknown cross model %q (valid: %s, %s, %s)",
				string(w.CrossModel), string(CrossUniform), string(CrossBursty), string(CrossNone))
		}
		if w.CrossUtil < 0 || w.CrossUtil > 1 {
			return fmt.Errorf("scenario: cross utilization %v outside [0, 1]", w.CrossUtil)
		}
		return nil
	}
	k, h := s.Topology.K, s.half()
	switch w.Pattern {
	case "", PatternConverging, PatternAllPairs:
	case PatternIncast:
		if w.IncastFanIn < 2 {
			return fmt.Errorf("scenario: incast fan-in %d < 2", w.IncastFanIn)
		}
		if hosts := (k - 1) * h * h; w.IncastFanIn > hosts {
			return fmt.Errorf("scenario: incast fan-in %d exceeds the %d hosts outside the destination pod", w.IncastFanIn, hosts)
		}
	case PatternHotspot:
		if w.HotspotSkew <= 0 || w.HotspotSkew > 1 {
			return fmt.Errorf("scenario: hotspot skew %v outside (0, 1]", w.HotspotSkew)
		}
	default:
		return fmt.Errorf("scenario: unknown workload pattern %q (valid: %s, %s, %s, %s)",
			w.Pattern, PatternConverging, PatternAllPairs, PatternIncast, PatternHotspot)
	}
	if w.DestPod < -1 || w.DestPod >= k {
		return fmt.Errorf("scenario: destination pod %d outside [0, %d)", w.DestPod, k)
	}
	if w.DestToR < 0 || w.DestToR >= h {
		return fmt.Errorf("scenario: destination ToR %d outside [0, %d)", w.DestToR, h)
	}
	return nil
}

func (s Spec) validateFaults() error {
	h := s.half()
	type window struct {
		start, end time.Duration
	}
	bySite := map[string][]window{}
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultLinkDegrade:
			if f.RateFactor <= 0 || f.RateFactor >= 1 {
				return fmt.Errorf("scenario: fault %d rate factor %v outside (0, 1)", i, f.RateFactor)
			}
			if f.DownPod < 0 || f.DownPod >= s.Topology.K {
				return fmt.Errorf("scenario: fault %d down-pod %d outside [0, %d)", i, f.DownPod, s.Topology.K)
			}
			if f.CoreJ < 0 || f.CoreJ >= h || f.CoreI < 0 || f.CoreI >= h {
				return fmt.Errorf("scenario: fault %d targets core (%d,%d) outside the %dx%d core grid",
					i, f.CoreJ, f.CoreI, h, h)
			}
		case FaultHopDelay:
			if f.Extra <= 0 {
				return fmt.Errorf("scenario: fault %d adds non-positive delay %v", i, f.Extra)
			}
			if f.AggPod < 0 || f.AggPod >= s.Topology.K || f.AggIdx < 0 || f.AggIdx >= h {
				return fmt.Errorf("scenario: fault %d targets aggregation switch (%d,%d) outside pods [0,%d) x aggs [0,%d)",
					i, f.AggPod, f.AggIdx, s.Topology.K, h)
			}
		default:
			return fmt.Errorf("scenario: fault %d has unknown kind %q (valid: %s, %s)",
				i, f.Kind, FaultLinkDegrade, FaultHopDelay)
		}
		if f.Start < 0 || f.End <= f.Start {
			return fmt.Errorf("scenario: fault %d window [%v, %v) is empty or negative", i, f.Start, f.End)
		}
		if f.End > s.Duration {
			return fmt.Errorf("scenario: fault %d ends at %v, past the %v run", i, f.End, s.Duration)
		}
		site := f.site()
		for _, w := range bySite[site] {
			if f.Start < w.end && w.start < f.End {
				return fmt.Errorf("scenario: fault %d window [%v, %v) overlaps an earlier fault at %s",
					i, f.Start, f.End, site)
			}
		}
		bySite[site] = append(bySite[site], window{f.Start, f.End})
	}
	return nil
}

func (s Spec) validateDeploy() error {
	d := s.Deploy
	switch d.Scheme {
	case SchemeStatic:
		if d.StaticN < 0 {
			return fmt.Errorf("scenario: negative static gap %d", d.StaticN)
		}
	case SchemeAdaptive:
		// Check the scheme the run builds, where an unset gap takes its
		// default: max_gap 5 alone is [10, 5].
		if a := s.scheme().(core.Adaptive); d.MinGap < 0 || d.MaxGap < 0 || a.Validate() != nil {
			return fmt.Errorf("scenario: adaptive gaps [%d, %d] invalid (built as [%d, %d])", d.MinGap, d.MaxGap, a.MinGap, a.MaxGap)
		}
	case SchemeNone:
		if s.Topology.Kind == TopoTandem {
			break
		}
		fallthrough
	default:
		valid := SchemeStatic + ", " + SchemeAdaptive
		if s.Topology.Kind == TopoTandem {
			valid += ", " + SchemeNone
		}
		return fmt.Errorf("scenario: unknown injection scheme %q (valid: %s)", d.Scheme, valid)
	}
	if _, err := d.interpolation(); err != nil {
		return fmt.Errorf("scenario: bad interpolation: %w", err)
	}
	if c := d.ReceiverClock; c != nil {
		if c.SyncInterval < 0 || c.SyncJitter < 0 {
			return fmt.Errorf("scenario: negative receiver clock sync interval %v or jitter %v", c.SyncInterval, c.SyncJitter)
		}
		if c.SyncInterval == 0 && c.SyncJitter != 0 {
			return fmt.Errorf("scenario: receiver clock sync_jitter_ns %v needs a sync_interval_ns", c.SyncJitter)
		}
		if c.SyncInterval > 0 && c.Offset != 0 {
			return fmt.Errorf("scenario: receiver clock offset_ns %v does not apply to a synced (PTP) clock", c.Offset)
		}
	}
	switch d.Demux {
	case "", DemuxReverseECMP, DemuxMark, DemuxOracle, DemuxNone:
	default:
		return fmt.Errorf("scenario: unknown demux strategy %q (valid: %s, %s, %s, %s)",
			d.Demux, DemuxReverseECMP, DemuxMark, DemuxOracle, DemuxNone)
	}
	for _, name := range d.Estimators {
		if !measure.Registered(name) {
			return fmt.Errorf("scenario: unknown estimator %q (valid: %s)",
				name, strings.Join(measure.Names(), ", "))
		}
	}
	if d.MaxInstances < 0 {
		return fmt.Errorf("scenario: negative instance budget %d", d.MaxInstances)
	}
	if d.MaxInstances > 0 {
		if need := s.Instances(); need > d.MaxInstances {
			return fmt.Errorf("scenario: deployment needs %d measurement instances, budget allows %d", need, d.MaxInstances)
		}
	}
	return nil
}

// trace converts the inline rows to a validated trace.LinkTrace.
func (l *LinkTraceSpec) trace() (*trace.LinkTrace, error) {
	rows := make([]trace.LinkSample, len(l.Samples))
	for i, s := range l.Samples {
		rows[i] = trace.LinkSample{At: s.T, Delay: s.Delay, Loss: s.Loss}
	}
	return trace.NewLinkTrace(rows)
}

// sortedFaults returns the faults ordered by start time (stable), the order
// the engine schedules them in.
func (s Spec) sortedFaults() []FaultSpec {
	out := append([]FaultSpec(nil), s.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
