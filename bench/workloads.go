package main

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
)

// The pipeline every workload drives is fixed: scenario.Export produces the
// capture, fleet.Router streams it over loopback to two in-process rlird
// instances (service.Server, two collector shards each), and one client asks
// the fleet front-end for /flows and /comparison over HTTP. A workload only
// decides how big the capture is, how the tables are capped, which framing
// the export connections speak, and what share of the run each stage gets.
const (
	fleetInstances = 2
	fleetShards    = 2
	// frameSamples is both the harness's RouteSamples batch and the
	// router's per-frame bound.
	frameSamples = 512
	// captureScenario is the registry scenario every capture comes from: a
	// K=4 fat-tree at 35 % any-to-any load with every ToR monitored, all
	// six estimators on the shared tap and the default flow mix. It is a
	// fat-tree so the same spec also runs on the parallel engine.
	captureScenario = "fattree-allpairs"
	// parPartitions is the parallel leg's lane count, sized for nproc = 2.
	parPartitions = 2
)

// shares splits a run's --seconds between the stages; the fields sum to 1.
// Every stage runs in every workload because every workload reports every
// metric; the stage a workload is about gets most of the time, and each of
// the others gets the floor that keeps its medians steady.
type shares struct {
	sim        float64 // export -> stream -> first /flows, sequential engine
	par        float64 // the same spec on the parallel engine
	flows      float64 // closed-loop GET /flows on a quiet fleet
	comparison float64 // closed-loop GET /comparison on a quiet fleet
	ingest     float64 // closed-loop replay at line rate
	mixed      float64 // open-loop replay beside closed-loop /flows
}

// workload is one set of inputs. Nothing here reaches the product as a
// name: the pipeline sees a spec, a seed, samples and HTTP requests.
type workload struct {
	name string
	why  string
	// simulated is the capture's simulated duration: the simulator's share
	// of work, and through it the sample count and distinct-flow count of
	// everything downstream.
	simulated time.Duration
	// maxFlows caps each instance's flow table (0 = uncapped). Capped
	// tables churn through LRU eviction into the rollup tiers and are
	// verified by sample conservation; uncapped tables are verified row
	// for row against the batch engine.
	maxFlows int
	// reliable selects swp framing on the export connections.
	reliable bool
	// openRate is the mixed stage's scheduled ingest rate in samples/s.
	openRate float64
	shares   shares
}

// workloads lists the two traffic mixes. Every run measures every stage, so
// a workload is a capture size, a table cap, a framing and a tilt of the
// shares; two of them at a minute each give every metric several seconds in
// every run, which four at half a minute did not (see README.md for how this
// differs from the issue's first sizing).
var workloads = []workload{
	{
		name:      "write_path",
		why:       "simulator- and ingest-bound: 0.2 s fat-tree capture on both engines, replayed closed loop over swp into capped tables that churn; a read-path change must not show here",
		simulated: 200 * time.Millisecond,
		maxFlows:  1024,
		reliable:  true,
		openRate:  1e6,
		shares:    shares{sim: 0.20, par: 0.24, flows: 0.12, comparison: 0.06, ingest: 0.26, mixed: 0.12},
	},
	{
		name:      "read_path",
		why:       "query-bound: 50 ms capture in uncapped tables over raw TCP; /flows and /comparison on a quiet fleet, then /flows beside open-loop ingest at 1.0 M samples/s, so a read gain that costs writes shows",
		simulated: 50 * time.Millisecond,
		openRate:  1e6,
		shares:    shares{sim: 0.08, par: 0.10, flows: 0.30, comparison: 0.14, ingest: 0.10, mixed: 0.28},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// minSimulated is the shortest capture that still carries RLI estimates
// for every stage to work on.
const minSimulated = 20 * time.Millisecond

// scaled shrinks the capture by factor f (the -short smoke's 1/50 size),
// down to minSimulated.
func (w workload) scaled(f float64) workload {
	w.simulated = max(time.Duration(float64(w.simulated)*f), minSimulated)
	return w
}

// spec is the workload's capture spec on the named engine.
func (w workload) spec(engine string) (scenario.Spec, error) {
	sc, ok := scenario.Get(captureScenario)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("scenario %s is not registered", captureScenario)
	}
	spec := sc.Spec
	spec.Duration = w.simulated
	if engine == scenario.EngineParallel {
		spec.Engine = scenario.EngineParallel
		spec.Partitions = parPartitions
	}
	if err := spec.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return spec, nil
}
