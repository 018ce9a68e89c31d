// Telemetry export: using the library as a flow-latency telemetry pipeline
// with a collection plane and the unified estimator layer.
//
// One tandem spec run carries the full measurement path a deployment would
// run:
//
//	RLI receiver ──per-packet estimates──> sharded collector ──> Result.Fleet
//
//	LDA + sampling + Multiflow ── shared tap dispatch ──> Result.Comparison
//
// The scenario engine streams every RLI estimate into its sharded collector
// plane, and the same run carries every baseline estimator on the shared
// tap dispatch — one packet stream, N estimators — so when the run ends the
// operator gets both the fleet flow table (CSV on stdout) and the estimator
// comparison table (stderr): which mechanism to trust, at what overhead.
// examples/streaming sends the same estimates over the wire to a live
// measurement service instead.
//
//	go run ./examples/telemetry > flows.csv
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/stats"
)

// collectorShards is the scenario engine's collector plane width.
const collectorShards = 4

func main() {
	log.SetFlags(0)

	spec, err := rlir.TandemSpec("default")
	if err != nil {
		log.Fatal(err)
	}
	spec.Workload.CrossUtil = 0.85
	spec.Deploy.Estimators = nil // RLI plus every registered baseline
	res, err := rlir.RunScenario(spec)
	if err != nil {
		log.Fatal(err)
	}

	// The operator's fleet view: the collector's flow table.
	fmt.Println("src,dst,src_port,dst_port,proto,estimates,mean_latency_us,stddev_us")
	for _, a := range res.Fleet {
		if a.Est.N() == 0 {
			continue
		}
		us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
		fmt.Printf("%s,%s,%d,%d,%s,%d,%.2f,%.2f\n",
			a.Key.Src, a.Key.Dst, a.Key.SrcPort, a.Key.DstPort, a.Key.Proto,
			a.Est.N(), us(a.Est.Mean()), us(a.Est.Std()))
	}

	// Operator summary to stderr: collector stats, then the estimator
	// comparison — every mechanism on this one pass, scored against the
	// same ground truth.
	var all stats.Sketch
	for i := range res.Fleet {
		all.Merge(&res.Fleet[i].Sketch)
	}
	fmt.Fprintf(os.Stderr, "collector: %d flows, %d samples over %d shards\n",
		len(res.Fleet), res.Samples, collectorShards)
	fmt.Fprintf(os.Stderr, "segment latency: p50=%v p99=%v max=%v\n",
		all.QuantileDuration(0.5), all.QuantileDuration(0.99), time.Duration(all.Max()))
	fmt.Fprintf(os.Stderr, "bottleneck utilization: %.1f%%, regular loss: %.6f\n",
		res.HotLinkUtil*100, res.LossRate())
	fmt.Fprint(os.Stderr, res.ComparisonTable().Render())
}
