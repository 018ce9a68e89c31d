// Quickstart: measure per-flow latency across two switches with RLIR.
//
// This runs the paper's Figure-3 scenario at laptop scale: regular traffic
// crosses an instrumented switch, cross traffic merges at the downstream
// bottleneck (raising it to 93% utilization — invisible to the sender), and
// the receiver reconstructs per-flow latency statistics from reference
// packet interpolation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rlir "github.com/netmeasure/rlir"
)

func main() {
	spec, err := rlir.TandemSpec("default")
	if err != nil {
		log.Fatal(err)
	}
	spec.Deploy.Scheme = "static" // the paper's 1-and-100 worst-case scheme
	spec.Workload.CrossModel = rlir.CrossUniform
	spec.Workload.CrossUtil = 0.93
	res, err := rlir.RunScenario(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run:                  %s\n", res.Spec.Label())
	fmt.Printf("bottleneck util:      %.1f%% (sender's own link saw only ~22%%)\n", res.HotLinkUtil*100)
	fmt.Printf("flows measured:       %d\n", res.Overall.Flows)
	fmt.Printf("per-packet estimates: %d from %d reference packets\n",
		res.Receiver.Estimated, res.Receiver.RefsSeen)
	fmt.Printf("median relative err:  %.1f%% (paper: ~4.5%% at 93%%)\n", res.Overall.MedianRelErr*100)
	fmt.Printf("true mean delay:      %v\n", res.Overall.TrueMeanDelay)
	fmt.Println()

	// The CDF the paper plots in Figure 4(a), for this single run:
	fmt.Print(rlir.MeanErrCDF(res.Results).Render("relative error of per-flow means", 1e-3, 1e1, 9))

	// A few of the best-observed flows.
	fmt.Println("\nsample flows (estimated vs true mean):")
	for i, fr := range res.Results {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-44s n=%-5d est=%-12v true=%-12v err=%.2f%%\n",
			fr.Key, fr.N, fr.EstMean, fr.TrueMean, fr.RelErrMean*100)
	}
}
