package scenario

import (
	"fmt"
	"sort"
	"time"
)

// Scenario is one registered named scenario: a spec plus the invariant that
// makes the registry a correctness harness. Check inspects a finished run
// and returns nil when the scenario-specific invariant holds; CI runs every
// registered scenario's check (the scenario-matrix job and
// TestScenarioRegistrySmoke).
type Scenario struct {
	Name string
	// Stresses describes the latency pathology the scenario manufactures.
	Stresses string
	// Invariant describes, in prose, what Check asserts.
	Invariant string
	// Spec is the runnable configuration (CI-sized; scale up via the spec
	// JSON front-end).
	Spec Spec
	// Check validates a finished run of Spec.
	Check func(*Result) error
}

// registry holds every named scenario, keyed by name.
var registry = map[string]Scenario{}

func register(sc Scenario) {
	if _, dup := registry[sc.Name]; dup {
		panic("scenario: duplicate registration of " + sc.Name)
	}
	if sc.Check == nil {
		panic("scenario: " + sc.Name + " registered without an invariant check")
	}
	sc.Spec.Name = sc.Name
	if err := sc.Spec.Validate(); err != nil {
		panic("scenario: " + sc.Name + " spec invalid: " + err.Error())
	}
	registry[sc.Name] = sc
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns a registered scenario.
func Get(name string) (Scenario, bool) {
	sc, ok := registry[name]
	return sc, ok
}

// All returns every registered scenario in name order.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// RunCheck runs the scenario at its spec seed and applies its invariant.
func (sc Scenario) RunCheck() (*Result, error) {
	res, err := Run(sc.Spec)
	if err != nil {
		return nil, err
	}
	if err := sc.Check(res); err != nil {
		return res, fmt.Errorf("scenario %s: invariant violated: %w", sc.Name, err)
	}
	return res, nil
}

// ---- invariant helpers ----

// intPtr is a literal-pointer helper for spec fields.
func intPtr(i int) *int { return &i }

// requireAccuracy asserts the overall downstream accuracy is sane and
// paper-comparable: estimates exist and the median per-flow relative error
// stays under bound (the repository's small-scale runs sit well above the
// paper's 60s-of-OC-192 numbers; bounds are calibrated per scenario at the
// registered seed and scale, with slack for cross-seed variation).
func requireAccuracy(r *Result, minFlows int, bound float64) error {
	if r.Overall.Flows < minFlows {
		return fmt.Errorf("only %d measured flows, want >= %d", r.Overall.Flows, minFlows)
	}
	if r.Overall.Estimates <= 0 {
		return fmt.Errorf("no estimates produced")
	}
	if !(r.Overall.MedianRelErr >= 0) || r.Overall.MedianRelErr > bound {
		return fmt.Errorf("median relative error %.4f outside [0, %.2f]", r.Overall.MedianRelErr, bound)
	}
	return nil
}

// requireEstimators asserts the unified estimator layer ran: every
// mechanism the spec requested has a comparison row from this single pass,
// the RLI row produced per-flow estimates with accounted reference
// overhead, and at least one passive baseline produced an estimate to
// compare against.
func requireEstimators(r *Result) error {
	want := r.Spec.EffectiveEstimators()
	if len(r.Comparison) != len(want) {
		return fmt.Errorf("comparison has %d rows, spec requested %d (%v)", len(r.Comparison), len(want), want)
	}
	baselineSamples := int64(0)
	for i, name := range want {
		c := r.Comparison[i]
		if c.Estimator != name {
			return fmt.Errorf("comparison row %d is %q, want %q", i, c.Estimator, name)
		}
		if name == "rli" {
			if c.Flows == 0 || c.Samples == 0 {
				return fmt.Errorf("rli comparison row is empty (%d flows, %d samples)", c.Flows, c.Samples)
			}
			if c.Overhead.InjectedPkts == 0 {
				return fmt.Errorf("rli row accounts no injected reference packets")
			}
		} else {
			// AggSamples counts actual observations (LDA's fixed sketch
			// overhead would make a records-based guard vacuous).
			baselineSamples += c.Samples + c.AggSamples
		}
	}
	if len(want) > 1 && baselineSamples == 0 {
		return fmt.Errorf("no baseline estimator observed anything; shared taps are not attached")
	}
	return nil
}

// requireCollector asserts the run streamed its estimates through the
// sharded collection plane.
func requireCollector(r *Result) error {
	if r.Samples == 0 || len(r.Fleet) == 0 {
		return fmt.Errorf("collector saw %d samples / %d flows; estimates are not streaming", r.Samples, len(r.Fleet))
	}
	if r.Samples != uint64(r.Overall.Estimates) {
		return fmt.Errorf("collector ingested %d samples but receivers produced %d estimates", r.Samples, r.Overall.Estimates)
	}
	return nil
}

// small is the CI-sized k=4 fat-tree the registered scenarios run on.
func small() TopologySpec {
	return TopologySpec{
		Kind:        TopoFatTree,
		K:           4,
		LinkBps:     200e6,
		Propagation: time.Microsecond,
		ProcDelay:   500 * time.Nanosecond,
		QueueBytes:  96 << 10,
	}
}

// The registrations, one init per family.

// Tandem accuracy and export loss.
func init() {
	// baseline-tandem: the paper's own Figure-3 shape as a scenario — the
	// regression anchor tying the engine back to §4's evaluation.
	register(Scenario{
		Name:      "baseline-tandem",
		Stresses:  "persistent cross-traffic congestion at a tandem bottleneck (§4.1 random model)",
		Invariant: "RLI produces per-flow estimates with median relative error within paper-comparable small-scale bounds",
		Spec: Spec{
			Version: SpecVersion,
			Topology: TopologySpec{
				Kind:       TopoTandem,
				LinkBps:    200e6,
				QueueBytes: 96 << 10,
			},
			Workload: WorkloadSpec{
				LoadFrac:   0.22,
				CrossModel: CrossUniform,
				CrossUtil:  0.93,
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50},
			Duration: 400 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.60); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			if r.HotLinkUtil < 0.80 {
				return fmt.Errorf("bottleneck utilization %.2f; cross traffic is not congesting the link", r.HotLinkUtil)
			}
			return nil
		},
	})

	// telemetry-loss: the baseline tandem run re-scored after seeded
	// export-frame loss. The estimates themselves are untouched — what
	// degrades is what the collection tier receives, which is exactly the
	// failure mode the swp reliable transport exists to remove.
	register(Scenario{
		Name:      "telemetry-loss",
		Stresses:  "a lossy telemetry export path: 40% of export frames dropped between measurement and collection",
		Invariant: "every estimator gains a degraded comparison row; RLI loses flow coverage proportional to dropped frames while the surviving flows keep their lossless accuracy",
		Spec: Spec{
			Version: SpecVersion,
			Topology: TopologySpec{
				Kind:       TopoTandem,
				LinkBps:    200e6,
				QueueBytes: 96 << 10,
			},
			Workload: WorkloadSpec{
				LoadFrac:   0.22,
				CrossModel: CrossUniform,
				CrossUtil:  0.93,
			},
			Deploy:    DeploymentSpec{Scheme: SchemeStatic, StaticN: 50},
			Telemetry: &TelemetrySpec{LossRate: 0.4, FrameRecords: 4},
			Duration:  400 * time.Millisecond,
			Seed:      1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.60); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			t := r.Telemetry
			if t == nil {
				return fmt.Errorf("spec requested telemetry loss but the result carries no telemetry report")
			}
			if len(t.Rows) != len(r.Comparison) {
				return fmt.Errorf("telemetry report has %d rows, comparison %d", len(t.Rows), len(r.Comparison))
			}
			for i, row := range t.Rows {
				if row.Estimator != r.Comparison[i].Estimator {
					return fmt.Errorf("telemetry row %d is %q, comparison row is %q", i, row.Estimator, r.Comparison[i].Estimator)
				}
				if row.Baseline.Flows != r.Comparison[i].Flows {
					return fmt.Errorf("%s telemetry baseline (%d flows) diverges from the lossless comparison (%d)",
						row.Estimator, row.Baseline.Flows, r.Comparison[i].Flows)
				}
			}
			rli, _ := t.Row("rli")
			if rli.FramesTotal < 10 {
				return fmt.Errorf("rli exported only %d frames; too few for the loss model to bite", rli.FramesTotal)
			}
			if rli.FramesDropped == 0 {
				return fmt.Errorf("40%% frame loss dropped nothing across %d rli frames", rli.FramesTotal)
			}
			if rli.Degraded.Flows >= rli.Baseline.Flows || rli.Degraded.Flows == 0 {
				return fmt.Errorf("rli flow coverage %d -> %d under loss; want a strict, non-total reduction",
					rli.Baseline.Flows, rli.Degraded.Flows)
			}
			// Loss removes records, it does not corrupt them: the surviving
			// flows carry their lossless estimates, so the degraded median
			// error must stay within the scenario's accuracy regime rather
			// than blow up.
			if !(rli.Degraded.MedianRelErr >= 0) || rli.Degraded.MedianRelErr > 0.60 {
				return fmt.Errorf("degraded rli median relative error %.4f outside [0, 0.60]", rli.Degraded.MedianRelErr)
			}
			return nil
		},
	})
}

// Distributed collection.
func init() {
	// fleet-partition: the baseline tandem stream collected by a fleet of
	// four flow-partitioned instances instead of one node. The invariant is
	// the distributed tier's whole correctness claim: merging the four
	// partition snapshots reproduces the single-node flow table bit-for-bit.
	register(Scenario{
		Name:      "fleet-partition",
		Stresses:  "distributed collection: the export stream flow-partitioned across a 4-instance rlird fleet",
		Invariant: "the merged fleet flow table is bit-identical to the single-node table and every partition carries traffic",
		Spec: Spec{
			Version: SpecVersion,
			Topology: TopologySpec{
				Kind:       TopoTandem,
				LinkBps:    200e6,
				QueueBytes: 96 << 10,
			},
			Workload: WorkloadSpec{
				LoadFrac:   0.22,
				CrossModel: CrossUniform,
				CrossUtil:  0.93,
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50},
			Fleet:    &FleetSpec{Instances: 4},
			Duration: 400 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireCollector(r); err != nil {
				return err
			}
			f := r.FleetReport
			if f == nil {
				return fmt.Errorf("spec requested a fleet but the result carries no fleet report")
			}
			if !f.MergeExact {
				return fmt.Errorf("merged fleet flow table diverged from the single-node table")
			}
			if f.Instances != 4 || len(f.PerInstance) != 4 {
				return fmt.Errorf("fleet report covers %d/%d instances, want 4", f.Instances, len(f.PerInstance))
			}
			if f.MergedFlows != len(r.Fleet) {
				return fmt.Errorf("merged table has %d flows, single node %d", f.MergedFlows, len(r.Fleet))
			}
			var samples uint64
			for _, in := range f.PerInstance {
				if in.Samples == 0 || in.Flows == 0 {
					return fmt.Errorf("instance %d collected nothing; partitioning is degenerate", in.Instance)
				}
				samples += in.Samples
			}
			if samples != r.Samples {
				return fmt.Errorf("partitions hold %d samples, the run produced %d", samples, r.Samples)
			}
			if len(f.Rows) != 0 || f.FailInstance != -1 {
				return fmt.Errorf("no failure was injected but the report carries one")
			}
			return nil
		},
	})

	// fleet-instance-loss: the same partitioned fleet with instance 1 killed
	// mid-collection. Its partition is gone; the scenario must keep working
	// and quantify the per-estimator accuracy cost against unchanged ground
	// truth rather than erroring.
	register(Scenario{
		Name:      "fleet-instance-loss",
		Stresses:  "a collection-tier instance failure: one of four partitions dies with its share of the stream",
		Invariant: "the degraded fleet still answers; RLI loses exactly the dead partition's flows while surviving flows keep their lossless accuracy",
		Spec: Spec{
			Version: SpecVersion,
			Topology: TopologySpec{
				Kind:       TopoTandem,
				LinkBps:    200e6,
				QueueBytes: 96 << 10,
			},
			Workload: WorkloadSpec{
				LoadFrac:   0.22,
				CrossModel: CrossUniform,
				CrossUtil:  0.93,
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50},
			Fleet:    &FleetSpec{Instances: 4, FailInstance: intPtr(1)},
			Duration: 400 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireCollector(r); err != nil {
				return err
			}
			f := r.FleetReport
			if f == nil {
				return fmt.Errorf("spec requested a fleet but the result carries no fleet report")
			}
			if !f.MergeExact {
				return fmt.Errorf("merged fleet flow table diverged from the single-node table")
			}
			if f.FailInstance != 1 || !f.PerInstance[1].Failed {
				return fmt.Errorf("fail_instance 1 was requested but the report marks %d", f.FailInstance)
			}
			if want := f.MergedFlows - f.PerInstance[1].Flows; f.DegradedFlows != want {
				return fmt.Errorf("degraded table has %d flows, want %d (full %d minus the dead partition's %d)",
					f.DegradedFlows, want, f.MergedFlows, f.PerInstance[1].Flows)
			}
			if len(f.Rows) != len(r.Comparison) {
				return fmt.Errorf("fleet report has %d estimator rows, comparison %d", len(f.Rows), len(r.Comparison))
			}
			rli, ok := f.Row("rli")
			if !ok {
				return fmt.Errorf("no rli row in the fleet report")
			}
			if rli.FlowsLost == 0 {
				return fmt.Errorf("instance 1 held no rli flows; the failure scenario is vacuous")
			}
			if rli.Degraded.Flows != rli.Baseline.Flows-rli.FlowsLost || rli.Degraded.Flows == 0 {
				return fmt.Errorf("rli flow coverage %d -> %d losing %d; want a strict, non-total reduction",
					rli.Baseline.Flows, rli.Degraded.Flows, rli.FlowsLost)
			}
			// Instance loss removes whole flows, it does not corrupt the
			// survivors: the degraded accuracy must stay in the scenario's
			// lossless regime — a quantified loss, not an error.
			if !(rli.Degraded.MedianRelErr >= 0) || rli.Degraded.MedianRelErr > 0.60 {
				return fmt.Errorf("degraded rli median relative error %.4f outside [0, 0.60]", rli.Degraded.MedianRelErr)
			}
			return nil
		},
	})
}

// Fat-tree traffic shapes.
func init() {
	// fattree-allpairs: uniform inter-pod any-to-any — the "whole fabric
	// instrumented" deployment with a receiver at every ToR.
	register(Scenario{
		Name:      "fattree-allpairs",
		Stresses:  "network-wide any-to-any load with every ToR monitored (full RLIR fan-out)",
		Invariant: "every monitored router produces estimates; reverse-ECMP demux never misattributes; accuracy bounded",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternAllPairs, LoadFrac: 0.35, DestPod: -1},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 150 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 100, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			if r.Misattribution != 0 {
				return fmt.Errorf("reverse-ECMP misattribution %.4f, want exactly 0", r.Misattribution)
			}
			for _, rs := range r.Routers {
				if rs.Summary.Estimates == 0 {
					return fmt.Errorf("router %s (%s) produced no estimates", rs.Router, rs.Segment)
				}
			}
			return nil
		},
	})

	// incast: many-to-one fan-in oversubscribing one access link, the
	// classic partition/aggregate pathology (PAPERS.md: RepFlow, low-latency
	// DCN survey).
	register(Scenario{
		Name:      "incast",
		Stresses:  "many-to-one fan-in oversubscribing a single host access link",
		Invariant: "the victim access link saturates, its delay is queue-dominated, and RLI still tracks per-flow latency",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternIncast, LoadFrac: 1.6, IncastFanIn: 8, DestPod: -1},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 8, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			if r.HotLinkUtil < 0.90 {
				return fmt.Errorf("victim link utilization %.2f; incast is not saturating it", r.HotLinkUtil)
			}
			// Queue-dominated: the measured true median dwarfs the quiescent
			// core->host path time (~2 store-and-forward hops, < 150µs at
			// this scale).
			if r.TrueP50 < 500*time.Microsecond {
				return fmt.Errorf("true median delay %v; expected a queue-dominated (>500µs) victim path", r.TrueP50)
			}
			return nil
		},
	})

	// microburst: on/off offered load whose bursts saturate the destination
	// links while the average stays moderate — the paper's bursty model
	// generalized to a fabric workload.
	register(Scenario{
		Name:      "microburst",
		Stresses:  "on/off microbursts: saturating bursts with idle gaps at moderate average load",
		Invariant: "delay distribution is strongly bimodal (p99 >> p50) and interpolation still tracks the bursts",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{
				Pattern:     PatternConverging,
				LoadFrac:    0.45,
				BurstOn:     10 * time.Millisecond,
				BurstPeriod: 40 * time.Millisecond,
				DestPod:     -1,
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 240 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			// The paper's Figure 4(c) claim: bursty congestion produces
			// large, slowly-varying delays that interpolation tracks far
			// better than persistent random congestion — so the accuracy
			// bound here is much tighter than the other scenarios'.
			if err := requireAccuracy(r, 50, 0.20); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			// The microburst signature: average load moderate (the link is
			// idle between bursts) while the median delay is queue-dominated
			// (every burst saturates the victim links).
			if r.HotLinkUtil > 0.70 {
				return fmt.Errorf("average utilization %.2f; bursts are not leaving idle gaps", r.HotLinkUtil)
			}
			if r.TrueP50 < time.Millisecond {
				return fmt.Errorf("true median delay %v; bursts should hold the queue deep (>= 1ms)", r.TrueP50)
			}
			return nil
		},
	})

	// hotspot: skewed senders concentrating load through one ToR's uplinks
	// (the survey's "skewed ECMP / elephant concentration" pathology).
	register(Scenario{
		Name:      "hotspot",
		Stresses:  "sender skew: half the flows originate under one hot ToR, concentrating upstream load",
		Invariant: "the hot ToR's core-facing traffic dominates upstream estimates and accuracy stays bounded",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternHotspot, LoadFrac: 0.55, HotspotSkew: 0.5, DestPod: -1},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			// The hot ToR is pod 0 (dest pod 3 => hot pod (3+1)%4 = 0), ToR 0.
			// Its flows funnel through the cores; upstream core receivers
			// must be seeing estimates from every core (the hot traffic is
			// ECMP-spread, not collapsed onto one path).
			for _, rs := range r.Routers {
				if rs.Segment == "tor-uplink->core" && rs.Summary.Estimates == 0 {
					return fmt.Errorf("core %s saw no upstream estimates; hot traffic is not spreading", rs.Router)
				}
			}
			return nil
		},
	})
}

// Faults and path asymmetry.
func init() {
	// degraded-link: one core's down-link loses most of its rate mid-run.
	// The per-segment view must localize the slowdown to that core's
	// segment — the operational use the paper motivates (Figure 1's "which
	// segment is slow").
	register(Scenario{
		Name:      "degraded-link",
		Stresses:  "a mid-run link-rate degradation at one core's down-link (scheduled fault window)",
		Invariant: "the degraded core's segment shows the highest estimated latency, well above every healthy segment",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.55, DestPod: -1},
			Faults: []FaultSpec{{
				Kind:       FaultLinkDegrade,
				CoreJ:      0,
				CoreI:      0,
				DownPod:    3,
				Start:      30 * time.Millisecond,
				End:        280 * time.Millisecond,
				RateFactor: 0.1,
			}},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 300 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			faulty, ok := r.Segment("core0.0->tor3.0")
			if !ok {
				return fmt.Errorf("no flows resolved onto the degraded segment core0.0->tor3.0")
			}
			// Segment boundaries follow the paper's egress timestamping, so
			// the degraded port's own queue sits upstream of the measured
			// span; what the segment must still show is the 10x slower
			// serialization of every packet crossing the degraded link.
			for _, seg := range r.Segments {
				if seg.Name == faulty.Name {
					continue
				}
				if faulty.EstMean < seg.EstMean*3/2 {
					return fmt.Errorf("degraded segment est mean %v not clearly above healthy %s (%v)",
						faulty.EstMean, seg.Name, seg.EstMean)
				}
			}
			return nil
		},
	})

	// ecmp-skew: physically differentiated core paths. Demultiplexing onto
	// the right reference stream is exactly what §3.1 argues is required;
	// with skewed paths a misattributed packet inherits the wrong baseline.
	register(Scenario{
		Name:      "ecmp-skew",
		Stresses:  "ECMP path asymmetry: per-core propagation skew makes parallel paths genuinely different",
		Invariant: "reverse-ECMP demux never misattributes and per-core segment estimates reproduce the physical skew ordering",
		Spec: Spec{
			Version: SpecVersion,
			Topology: func() TopologySpec {
				t := small()
				t.CoreSkew = 150 * time.Microsecond
				return t
			}(),
			Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.45, DestPod: -1},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			if r.Misattribution != 0 {
				return fmt.Errorf("reverse-ECMP misattribution %.4f, want exactly 0", r.Misattribution)
			}
			// Core (j,i) carries (j*2+i)*150µs extra propagation; the spread
			// between the fastest and slowest segment estimates must show
			// most of the 3*150µs physical spread.
			var minMean, maxMean time.Duration
			for idx, seg := range r.Segments {
				if idx == 0 || seg.EstMean < minMean {
					minMean = seg.EstMean
				}
				if seg.EstMean > maxMean {
					maxMean = seg.EstMean
				}
			}
			if spread := maxMean - minMean; spread < 300*time.Microsecond {
				return fmt.Errorf("segment estimate spread %v; 450µs of physical skew should be visible", spread)
			}
			return nil
		},
	})
}

// Adversarial and trace-driven runs.
func init() {
	// adversarial-delay: a compromised aggregation switch hides extra
	// latency from the packets it predicts will be measured (RLI references
	// and the periodic sampler's subset). The detection report pairs the
	// run with a clean run at the same seed: secret-key hash sampling must
	// expose the hidden delay, and the predictable mechanisms must miss it
	// — the attack RLI alone cannot see.
	register(Scenario{
		Name:      "adversarial-delay",
		Stresses:  "a delay-gaming aggregation switch sparing RLI references and predicted periodic samples",
		Invariant: "hash-sample exposes the hidden delay shift; periodic-sample and reference-based RLI both stay blind to it",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.45, DestPod: -1},
			Adversary: &AdversarySpec{
				AggPod: 3,
				AggIdx: 0,
				Extra:  2 * time.Millisecond,
				Start:  20 * time.Millisecond,
				End:    200 * time.Millisecond,
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			// Accuracy is NOT bounded tightly here: the adversary's whole
			// point is that reference-based estimates go wrong. Flows and
			// estimates still must exist and stream.
			if err := requireAccuracy(r, 50, 0.99); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			d := r.Detection
			if d == nil {
				return fmt.Errorf("spec set an adversary but the result carries no detection report")
			}
			if len(d.Rows) != len(r.Comparison) {
				return fmt.Errorf("detection report has %d rows, comparison %d", len(d.Rows), len(r.Comparison))
			}
			if d.TrueShift < d.HiddenDelay/10 {
				return fmt.Errorf("true aggregate shift %v under 10%% of the %v hidden delay; the adversary is not biting",
					d.TrueShift, d.HiddenDelay)
			}
			hash, ok := d.Row("hash-sample")
			if !ok || !hash.Detected {
				return fmt.Errorf("hash-sample exposed only %.2f of the hidden shift (want >= %.2f): the keyed sample set is predictable",
					hash.Exposure, d.Threshold)
			}
			per, ok := d.Row("periodic-sample")
			if !ok || per.Detected {
				return fmt.Errorf("periodic-sample exposed %.2f of the hidden shift; the adversary failed to spare its predictable subset",
					per.Exposure)
			}
			rli, ok := d.Row("rli")
			if !ok || rli.Detected {
				return fmt.Errorf("rli exposed %.2f of the hidden shift; spared references should have blinded interpolation",
					rli.Exposure)
			}
			return nil
		},
	})

	// trace-replay: one core down-link's delay and loss driven by a
	// recorded time series instead of synthetic constants — the replay path
	// cmd/scenario -link-trace exercises with tracegen-produced files,
	// registered here with the rows inline so CI needs no fixture file.
	register(Scenario{
		Name:      "trace-replay",
		Stresses:  "a recorded per-link delay/loss time series replayed on one core down-link",
		Invariant: "the emulated link applies the trace (drops observed, reported bounds match the rows) and RLI accuracy stays bounded through it",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.45, DestPod: -1},
			LinkTrace: &LinkTraceSpec{
				CoreJ:   0,
				CoreI:   0,
				DownPod: 3,
				Samples: []LinkTraceSampleSpec{
					{T: 0, Delay: 0, Loss: 0},
					{T: 25 * time.Millisecond, Delay: 150 * time.Microsecond, Loss: 0},
					{T: 50 * time.Millisecond, Delay: 400 * time.Microsecond, Loss: 0.05},
					{T: 75 * time.Millisecond, Delay: 250 * time.Microsecond, Loss: 0},
					{T: 100 * time.Millisecond, Delay: 50 * time.Microsecond, Loss: 0.02},
					{T: 125 * time.Millisecond, Delay: 300 * time.Microsecond, Loss: 0},
					{T: 150 * time.Millisecond, Delay: 100 * time.Microsecond, Loss: 0.04},
					{T: 175 * time.Millisecond, Delay: 0, Loss: 0},
				},
			},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			lt := r.LinkTrace
			if lt == nil {
				return fmt.Errorf("spec set a link trace but the result carries no link-trace report")
			}
			if lt.Link != "core0.0->pod3" {
				return fmt.Errorf("link-trace report covers %s, want core0.0->pod3", lt.Link)
			}
			if lt.Rows != 8 || lt.Span != 175*time.Millisecond {
				return fmt.Errorf("link-trace report replayed %d rows over %v, want 8 over 175ms", lt.Rows, lt.Span)
			}
			if lt.MaxDelay != 400*time.Microsecond || lt.MaxLoss != 0.05 {
				return fmt.Errorf("link-trace bounds delay=%v loss=%.3f diverge from the rows", lt.MaxDelay, lt.MaxLoss)
			}
			if lt.Drops == 0 {
				return fmt.Errorf("loss episodes up to 5%% dropped nothing; the emulator is not applied")
			}
			return nil
		},
	})

	// repflow: every flow sent twice over (usually) distinct ECMP paths,
	// first arrival wins — the replication trick from the RepFlow line of
	// work (PAPERS.md), here measuring what path diversity buys at the
	// monitored segment and that demux attribution survives it.
	register(Scenario{
		Name:      "repflow",
		Stresses:  "flow replication: each flow duplicated onto a second ECMP path, first arrival wins",
		Invariant: "replicated pairs mostly take distinct core paths, first-arrival latency never exceeds either copy's mean, and reverse-ECMP attribution stays exact",
		Spec: Spec{
			Version:  SpecVersion,
			Topology: small(),
			Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.30, DestPod: -1, Replicate: true},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Demux: DemuxReverseECMP},
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Check: func(r *Result) error {
			if err := requireAccuracy(r, 50, 0.80); err != nil {
				return err
			}
			if err := requireCollector(r); err != nil {
				return err
			}
			if err := requireEstimators(r); err != nil {
				return err
			}
			rf := r.RepFlow
			if rf == nil {
				return fmt.Errorf("spec set replicate but the result carries no repflow report")
			}
			if rf.Pairs < 100 {
				return fmt.Errorf("only %d replicated pairs; the workload is too thin to score", rf.Pairs)
			}
			if rf.Matched*10 < rf.Pairs*8 {
				return fmt.Errorf("only %d of %d pairs matched at the monitored edge", rf.Matched, rf.Pairs)
			}
			if rf.DistinctPathFrac < 0.3 {
				return fmt.Errorf("distinct-path fraction %.3f; the replica port flip is not diversifying ECMP", rf.DistinctPathFrac)
			}
			if rf.FirstArrivalMean <= 0 ||
				rf.FirstArrivalMean > rf.PrimaryMean || rf.FirstArrivalMean > rf.ReplicaMean {
				return fmt.Errorf("first-arrival mean %v not below primary %v / replica %v",
					rf.FirstArrivalMean, rf.PrimaryMean, rf.ReplicaMean)
			}
			if r.Misattribution != 0 {
				return fmt.Errorf("reverse-ECMP misattribution %.4f under replication, want exactly 0", r.Misattribution)
			}
			return nil
		},
	})
}
