package measure

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/lda"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// BenchmarkSharedTap measures the shared dispatch's per-packet cost with
// the full default estimator set attached (truth + rli + lda +
// netflow-sample + multiflow): the overhead the scenario engine pays per
// forwarded packet for running the whole comparison matrix on one pass
// (measure.tap_ns_per_pkt in the pipeline benchmark;
// TestZeroAllocDispatchSteadyState holds it at 0 allocs per packet).
func BenchmarkSharedTap(b *testing.B) {
	truth := NewTruth()
	rli, err := NewRLI(core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDispatch(truth, rli, NewLDA(lda.Config{}), NewSampled(0, 1), NewMultiflow(0))

	const nFlows = 256
	pkts := make([]packet.Packet, nFlows)
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i + 1), Key: key(i), Size: 1000, Kind: packet.Regular}
	}
	// Warm-up: establish per-flow state in every estimator.
	at := simtime.Time(0)
	for r := 0; r < 4; r++ {
		for i := range pkts {
			at = at.Add(time.Microsecond)
			pkts[i].SegmentStart = at
			d.TapStart(&pkts[i], at)
			d.TapEnd(&pkts[i], at.Add(100*time.Microsecond))
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for n := 0; n < b.N; n++ {
		p := &pkts[n%nFlows]
		at = at.Add(time.Microsecond)
		p.SegmentStart = at
		d.TapStart(p, at)
		d.TapEnd(p, at.Add(100*time.Microsecond))
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "pkts/s")
	}
}
