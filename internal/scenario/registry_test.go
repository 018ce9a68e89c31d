package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// TestScenarioRegistrySmoke runs every registered scenario at its CI-sized
// spec and applies its invariant — the correctness harness the CI
// scenario-matrix job fans out over (one matrix entry per subtest name).
func TestScenarioRegistrySmoke(t *testing.T) {
	if len(registry) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6", len(registry))
	}
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := sc.RunCheck()
			if err != nil {
				if res != nil {
					t.Logf("result:\n%s", res.Render())
				}
				t.Fatal(err)
			}
			if out := res.Render(); strings.Contains(out, "NaN") {
				t.Errorf("report prints a NaN:\n%s", out)
			}
			t.Logf("%s: flows=%d medianErr=%.4f estP99=%v hotUtil=%.2f misattr=%.4f samples=%d",
				sc.Name, res.Overall.Flows, res.Overall.MedianRelErr, res.EstP99,
				res.HotLinkUtil, res.Misattribution, res.Samples)
		})
	}
}

// TestRegistryMetadata pins the registry's documented contract: the six
// pathologies the roadmap names are all present, and every entry carries
// the prose fields the docs and CI listing render.
func TestRegistryMetadata(t *testing.T) {
	required := []string{
		"baseline-tandem", "fattree-allpairs", "incast",
		"microburst", "degraded-link", "ecmp-skew", "telemetry-loss",
		"fleet-partition", "fleet-instance-loss",
	}
	for _, name := range required {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("required scenario %q is not registered", name)
		}
		if sc.Stresses == "" || sc.Invariant == "" {
			t.Errorf("%s: missing Stresses/Invariant documentation", name)
		}
		if sc.Spec.Name != name {
			t.Errorf("%s: spec name %q does not match registration", name, sc.Spec.Name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// TestResultQuantilesMatchFleet pins the run's delay tails to the
// collector's view: both fold the same per-packet estimate stream into the
// same sketch layout, and sketch merges are bit-exact, so Result.EstP50 and
// EstP99 equal the quantiles of the merged Fleet sketches exactly.
func TestResultQuantilesMatchFleet(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			var all stats.Sketch
			for i := range res.Fleet {
				all.Merge(&res.Fleet[i].Sketch)
			}
			if all.Count() == 0 {
				t.Fatal("the collector saw no estimate")
			}
			p50, p99 := all.QuantileDuration(0.5), all.QuantileDuration(0.99)
			if res.EstP50 != p50 || res.EstP99 != p99 {
				t.Fatalf("EstP50/EstP99 = %v/%v, the fleet's sketch reads %v/%v",
					res.EstP50, res.EstP99, p50, p99)
			}
		})
	}
}

// TestRLIRowIsTheCollectorTable pins the comparison table's RLI row to the
// collector's flow table on every registered spec, and on fattree-allpairs
// at seed 12, where splitting the table per monitored ToR and merging the
// parts back truncated the aggregate twice: AggSamples is the rows' summed
// estimate count and AggMean the one N-weighted mean of their truncated
// estimated means, folded in key order.
func TestRLIRowIsTheCollectorTable(t *testing.T) {
	type seeded struct {
		name string
		spec Spec
		seed int64
	}
	allPairs, _ := Get("fattree-allpairs")
	runs := []seeded{{"fattree-allpairs-seed12", allPairs.Spec, 12}}
	for _, sc := range All() {
		runs = append(runs, seeded{sc.Name, sc.Spec, sc.Spec.Seed})
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			res, err := RunSeed(run.spec, run.seed)
			if err != nil {
				t.Fatal(err)
			}
			var w float64
			var n int64
			for i := range res.Fleet {
				est := &res.Fleet[i].Est
				w += float64(time.Duration(est.Mean())) * float64(est.N())
				n += est.N()
			}
			if n == 0 {
				t.Fatal("the collector saw no estimate")
			}
			rli := res.Comparison[0]
			if want := time.Duration(w / float64(n)); rli.Estimator != "rli" || rli.AggSamples != n || rli.AggMean != want {
				t.Fatalf("%s row: AggMean %v over %d samples; the collector table reads %v over %d",
					rli.Estimator, rli.AggMean, rli.AggSamples, want, n)
			}
		})
	}
}

// TestRegistryWiresCarryOnePacket is the departure half of a Lindley
// replay, run on every registered fat-tree spec: a tx-start tap on every
// port checks that no transmission starts before the port's previous one
// has ended, at the rate the port's Link gave it — degrade windows, path
// skew and link-trace replay included.
func TestRegistryWiresCarryOnePacket(t *testing.T) {
	degraded := 0
	for _, sc := range All() {
		if sc.Spec.Topology.Kind == TopoTandem {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			r, err := buildFatTree(sc.Spec, sc.Spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.instrument(nil); err != nil {
				t.Fatal(err)
			}
			var starts int
			var overlap string // the first violation; the simulator's goroutine must not stop
			for id := range r.nw.Nodes() {
				for _, pt := range r.nw.Node(netsim.NodeID(id)).Ports() {
					var prevAt simtime.Time
					prevSize := 0
					pt.OnTxStart(func(p *packet.Packet, now simtime.Time) {
						if prevSize > 0 {
							rate := pt.Link().Rate(prevAt)
							if rate != sc.Spec.Topology.LinkBps {
								degraded++
							}
							if free := prevAt.Add(simtime.TxTime(prevSize, rate)); now.Before(free) && overlap == "" {
								overlap = fmt.Sprintf("%s port %d: packet %d starts at %v, the wire is busy until %v",
									pt.Node().Name(), pt.Index(), p.ID, now, free)
							}
						}
						prevAt, prevSize = now, p.Size
						starts++
					})
				}
			}
			r.inject()
			r.run()
			if _, err := r.harvest(); err != nil {
				t.Fatal(err)
			}
			if overlap != "" {
				t.Fatal(overlap)
			}
			if starts == 0 {
				t.Fatal("no transmission started")
			}
		})
	}
	if degraded == 0 {
		t.Fatal("no registry spec started a packet on a degraded link; the test lost its rate case")
	}
}
