package rlir_test

import (
	"context"
	"fmt"
	"net"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// ExampleTandemSpec measures per-flow latency across the paper's two-switch
// scenario: regular traffic through an instrumented switch, unseen cross
// traffic congesting the downstream bottleneck to 93%, static 1-and-100
// worst-case injection.
func ExampleTandemSpec() {
	spec, err := rlir.TandemSpec("small")
	if err != nil {
		panic(err)
	}
	spec.Workload.CrossUtil = 0.93
	res, err := rlir.RunScenario(spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %d flows with %d reference packets\n",
		res.Overall.Flows, res.Receiver.RefsSeen)
	for _, fr := range res.Results[:1] {
		fmt.Printf("flow %v: est %v vs true %v\n", fr.Key, fr.EstMean, fr.TrueMean)
	}
}

// ExampleDefaultFatTreeSpec deploys RLIR on a k=4 fat-tree: upstream senders
// at ToR uplinks, receivers at cores, downstream demultiplexing by reverse
// ECMP computation.
func ExampleDefaultFatTreeSpec() {
	spec := rlir.DefaultFatTreeSpec()
	spec.Deploy.Demux = "reverse-ecmp"
	res, err := rlir.RunScenario(spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("downstream median error %.3f, misattribution %.0f%%\n",
		res.Overall.MedianRelErr, res.Misattribution*100)
}

// ExampleRunLocalization injects a 300µs fault at an aggregation switch of
// the destination pod and lets the per-segment measurements point at it.
func ExampleRunLocalization() {
	cfg := rlir.DefaultLocalizationConfig()
	cfg.Fault.AggIdx = 1
	res, err := rlir.RunLocalization(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("localized:", res.Localized())
	for _, a := range res.Anomalies {
		fmt.Println(a)
	}
}

// ExampleAdaptive shows the injection scheme the sender uses when it can
// see its own link's utilization — and why it misfires across routers.
func ExampleAdaptive() {
	scheme := rlir.DefaultAdaptive()
	// The sender's own link sits at 22%: maximum probe rate.
	fmt.Println("gap at 22%:", scheme.Gap(0.22))
	// The bottleneck it cannot see is at 93%; had it known, it would back
	// off to:
	fmt.Println("gap at 93%:", scheme.Gap(0.93))
	// Output:
	// gap at 22%: 10
	// gap at 93%: 258
}

// ExampleEstimatorNames looks up the measurement-mechanism registry: the
// comparison set every scenario can attach to one simulation pass, with
// "rli" (the mechanism under test) always first.
func ExampleEstimatorNames() {
	for _, name := range rlir.EstimatorNames() {
		fmt.Println(name, rlir.EstimatorRegistered(name))
	}
	_, err := rlir.ParseEstimatorList("rli, bogus")
	fmt.Println(err != nil)
	// Output:
	// rli true
	// hash-sample true
	// lda true
	// multiflow true
	// netflow-sample true
	// periodic-sample true
	// true
}

// ExampleScenarioByName looks up the scenario registry — every entry pairs
// a runnable spec with the invariant CI enforces on it.
func ExampleScenarioByName() {
	sc, ok := rlir.ScenarioByName("degraded-link")
	fmt.Println(ok, sc.Spec.Topology.Kind, len(sc.Spec.Faults))
	_, ok = rlir.ScenarioByName("nonexistent")
	fmt.Println(ok)
	// Output:
	// true fattree 1
	// false
}

// ExampleServiceClient runs the full streaming-service client path in
// process: a measurement service, a client streaming samples over a pipe
// (standing in for the TCP/Unix socket cmd/rlird listens on), and the
// aggregate the service answers queries from.
func ExampleServiceClient() {
	svc, err := rlir.NewMeasurementService(rlir.ServiceConfig{Shards: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	server, client := net.Pipe()
	svc.ServeConn(server)

	c := rlir.NewServiceClient(client, 0)
	c.Hello("tor3.0") // declare this connection's router identity
	key := rlir.FlowKey{
		Src: rlir.MustParseAddr("10.0.0.1"), Dst: rlir.MustParseAddr("10.3.0.1"),
		SrcPort: 4242, DstPort: 443, Proto: 6,
	}
	for i := 1; i <= 100; i++ {
		// In a deployment this hangs off the receiver's OnEstimate hook.
		c.Add(key, time.Duration(i)*time.Microsecond, time.Duration(i)*time.Microsecond)
	}
	c.Close()

	for svc.Collector().SamplesIngested() < 100 {
		time.Sleep(time.Millisecond)
	}
	flows := svc.Snapshot()
	fmt.Printf("%d flow, %d samples, mean %v\n",
		len(flows), flows[0].Est.N(), time.Duration(flows[0].Est.Mean()))
	svc.Shutdown(context.Background())
	// Output:
	// 1 flow, 100 samples, mean 50.5µs
}

// ExampleNewTraceGenerator builds the synthetic CAIDA-stand-in workload.
func ExampleNewTraceGenerator() {
	cfg := rlir.DefaultTraceConfig()
	cfg.Duration = 10 * time.Millisecond
	gen := rlir.NewTraceGenerator(cfg)
	rec, ok := gen.Next()
	fmt.Println(ok, rec.Size >= 64)
	// Output:
	// true true
}
