// Telemetry export: using the library as a flow-latency telemetry pipeline
// with a live collection plane and the unified estimator layer.
//
// This example wires the full measurement path a deployment would run:
//
//	RLI receiver ──per-packet estimates──┐
//	                                     ├─ binary wire frames ─> collector
//	NetFlow meter (Multiflow estimator)──┘       (sharded, concurrent)
//
//	LDA + sampling + Multiflow ── shared tap dispatch ─> comparison table
//
// The RLI receiver's OnEstimate hook batches telemetry, encodes it with
// the collector's compact wire codec (what a UDP export packet would
// carry), and a consumer goroutine decodes the frames into a live sharded
// collector. The same run carries every baseline estimator on the shared
// tap dispatch — one packet stream, N estimators — so when the run ends
// the operator gets both the fleet flow table (CSV on stdout) and the
// estimator comparison table (stderr): which mechanism to trust, at what
// overhead.
//
//	go run ./examples/telemetry > flows.csv
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

func main() {
	log.SetFlags(0)

	// 1. The live collection plane: 4 shards, each owned by one goroutine,
	// fed encoded wire frames through a channel standing in for the export
	// socket.
	plane := collector.New(collector.Config{Shards: 4})
	frames := make(chan []byte, 64)
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for frame := range frames {
			for len(frame) > 0 {
				n, err := plane.IngestFrame(frame)
				if err != nil {
					log.Fatalf("collector rejected frame: %v", err)
				}
				frame = frame[n:]
			}
		}
	}()

	// 2. The RLI export path: per-packet estimates batch into wire frames.
	var sampleBatch []collector.Sample
	flushSamples := func() {
		if len(sampleBatch) == 0 {
			return
		}
		frames <- collector.AppendSamples(nil, sampleBatch)
		sampleBatch = sampleBatch[:0]
	}
	onEstimate := func(key packet.FlowKey, est, truth time.Duration) {
		sampleBatch = append(sampleBatch, collector.Sample{Key: key, Est: est, True: truth})
		if len(sampleBatch) >= 256 {
			flushSamples()
		}
	}

	// 3. The estimator layer: every baseline rides the same run through
	// one shared tap dispatch at the two measurement points.
	baselines := make([]rlir.MeasureEstimator, 0, 3)
	for _, name := range rlir.EstimatorNames() {
		if name == "rli" {
			continue // RLI is the harness's own receiver below
		}
		est, err := rlir.NewEstimator(name, rlir.MeasureConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		baselines = append(baselines, est)
	}
	truth := rlir.NewMeasureTruth()
	shared := rlir.NewMeasureDispatch(truth, baselines...)

	// 4. Measure per-flow latency across the instrumented segment.
	res := rlir.RunTandem(rlir.TandemConfig{
		Scale:      rlir.DefaultScale(),
		Scheme:     rlir.DefaultStatic(),
		Model:      rlir.CrossUniform,
		TargetUtil: 0.85,
		OnEstimate: onEstimate,
		OnSenderPoint: func(p *packet.Packet, now simtime.Time) {
			if p.Kind == packet.Regular {
				shared.TapStart(p, now)
			}
		},
		OnReceiverPoint: func(p *packet.Packet, now simtime.Time) {
			if p.Kind == packet.Regular {
				shared.TapEnd(p, now)
			}
		},
	})
	flushSamples()
	close(frames)
	<-consumerDone

	// 5. The operator's fleet view: one snapshot of the merged plane.
	snapshot := plane.Snapshot()
	fmt.Println("src,dst,src_port,dst_port,proto,estimates,mean_latency_us,stddev_us")
	for _, a := range snapshot {
		if a.Est.N() == 0 {
			continue
		}
		us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
		fmt.Printf("%s,%s,%d,%d,%s,%d,%.2f,%.2f\n",
			a.Key.Src, a.Key.Dst, a.Key.SrcPort, a.Key.DstPort, a.Key.Proto,
			a.Est.N(), us(a.Est.Mean()), us(a.Est.Std()))
	}

	// 6. Operator summary to stderr: collector stats, then the estimator
	// comparison — every mechanism on this one pass, scored against the
	// same ground truth.
	var all stats.Sketch
	for i := range snapshot {
		all.Merge(&snapshot[i].Sketch)
	}
	hist := all.Log2Histogram()
	fmt.Fprintf(os.Stderr, "collector: %d flows, %d samples over %d shards\n",
		len(snapshot), plane.SamplesIngested(), plane.Shards())
	fmt.Fprintf(os.Stderr, "segment latency: p50<=%v p99<=%v max=%v\n",
		hist.Quantile(0.5), hist.Quantile(0.99), hist.Max())
	fmt.Fprintf(os.Stderr, "bottleneck utilization: %.1f%%, regular loss: %.6f\n",
		res.AchievedUtil*100, res.LossRate())

	reports := []rlir.MeasureReport{rlir.ReportFromFlowResults("rli", "sw2", res.Results, rlir.MeasureOverhead{
		InjectedPkts:  res.Sender.Injected,
		InjectedBytes: res.Sender.Injected * rlir.DefaultRefSize,
	})}
	for _, b := range baselines {
		reports = append(reports, b.Finalize())
	}
	fmt.Fprintln(os.Stderr, "estimator comparison (single pass, shared ground truth):")
	fmt.Fprint(os.Stderr, rlir.RenderEstimatorComparison(rlir.CompareEstimators(truth, reports...)))
	plane.Close()
}
