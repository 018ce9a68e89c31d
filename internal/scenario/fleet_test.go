package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
)

func TestFleetSpecValidation(t *testing.T) {
	base := DefaultSpec()
	cases := []struct {
		name  string
		fleet *FleetSpec
		want  string
	}{
		{"zero instances", &FleetSpec{Instances: 0}, "fleet instances"},
		{"negative instances", &FleetSpec{Instances: -2}, "fleet instances"},
		{"fail below range", &FleetSpec{Instances: 4, FailInstance: intPtr(-1)}, "fail_instance"},
		{"fail at range", &FleetSpec{Instances: 4, FailInstance: intPtr(4)}, "fail_instance"},
	}
	for _, tc := range cases {
		s := base
		s.Fleet = tc.fleet
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
	ok := base
	ok.Fleet = &FleetSpec{Instances: 4, FailInstance: intPtr(3)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fleet spec rejected: %v", err)
	}
}

// TestFleetReportOnFatTree checks the fleet layer is topology-agnostic: a
// fat-tree run with a fleet spec produces the same exact-merge proof and
// failure accounting the tandem scenarios pin. Losing the only instance of a
// one-instance fleet is a run too, not an error: the front-end answers for
// a fleet that is down, and every flow is lost.
func TestFleetReportOnFatTree(t *testing.T) {
	spec := Spec{
		Version: SpecVersion,
		Topology: TopologySpec{
			Kind:        TopoFatTree,
			K:           4,
			LinkBps:     200e6,
			Propagation: time.Microsecond,
			ProcDelay:   500 * time.Nanosecond,
			QueueBytes:  96 << 10,
		},
		Workload: WorkloadSpec{Pattern: PatternConverging, LoadFrac: 0.5, DestPod: -1},
		Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Estimators: []string{"rli"}},
		Duration: 100 * time.Millisecond,
		Seed:     7,
	}
	for _, fl := range []FleetSpec{
		{Instances: 3, FailInstance: intPtr(0)},
		{Instances: 1, FailInstance: intPtr(0)},
	} {
		spec.Fleet = &fl
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%d instances: %v", fl.Instances, err)
		}
		f := res.FleetReport
		if f == nil {
			t.Fatal("no fleet report on a fat-tree run")
		}
		if !f.MergeExact {
			t.Fatalf("%d instances: fat-tree fleet merge diverged from the single-node table", fl.Instances)
		}
		if f.FailInstance != 0 || len(f.Rows) != len(res.Comparison) {
			t.Fatalf("failure accounting off: fail=%d rows=%d comparison=%d",
				f.FailInstance, len(f.Rows), len(res.Comparison))
		}
		rli, ok := f.Row("rli")
		if !ok || rli.Degraded.Flows+rli.FlowsLost != rli.Baseline.Flows {
			t.Fatalf("rli row inconsistent: %+v", rli)
		}
		if fl.Instances == 1 && (f.DegradedFlows != 0 || rli.FlowsLost != rli.Baseline.Flows) {
			t.Fatalf("whole fleet lost, yet %d flows survive and rli lost %d of %d",
				f.DegradedFlows, rli.FlowsLost, rli.Baseline.Flows)
		}
		if want := fmt.Sprintf("fleet collection (%d instances)", fl.Instances); !strings.Contains(res.Render(), want) {
			t.Fatal("rendered result omits the fleet section")
		}
	}
}

// TestLoseInstanceAggregateOnly pins the aggregate-only passthrough: a
// report with no per-flow records (LDA-style) is not flow-partitioned, so
// instance loss must not touch it.
func TestLoseInstanceAggregateOnly(t *testing.T) {
	in := measure.Report{Estimator: "lda", AggMean: 42 * time.Microsecond, AggSamples: 9}
	out, lost := loseInstance(in, 4, 1)
	if lost != 0 || out.AggMean != in.AggMean || out.AggSamples != in.AggSamples {
		t.Fatalf("aggregate-only report changed under instance loss: %+v lost=%d", out, lost)
	}

	// And a per-flow report loses exactly the failed partition's flows, with
	// the aggregate re-derived from the survivors.
	flows := []measure.FlowEstimate{
		{Key: packet.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 6}, Mean: 10 * time.Microsecond, N: 2},
		{Key: packet.FlowKey{Src: 5, Dst: 6, SrcPort: 7, DstPort: 8, Proto: 6}, Mean: 30 * time.Microsecond, N: 4},
		{Key: packet.FlowKey{Src: 9, Dst: 10, SrcPort: 11, DstPort: 12, Proto: 17}, Mean: 20 * time.Microsecond, N: 1},
	}
	rep := measure.Report{Estimator: "rli", Flows: flows, AggSamples: 7}
	for fail := 0; fail < 3; fail++ {
		out, lost := loseInstance(rep, 3, fail)
		var wantN int64
		var wantW float64
		wantLost := 0
		for _, fe := range flows {
			if int(fe.Key.FastHash()%3) == fail {
				wantLost++
				continue
			}
			wantN += fe.N
			wantW += float64(fe.Mean) * float64(fe.N)
		}
		if lost != wantLost || len(out.Flows) != len(flows)-wantLost || out.AggSamples != wantN {
			t.Fatalf("fail=%d: lost=%d flows=%d aggSamples=%d, want %d/%d/%d",
				fail, lost, len(out.Flows), out.AggSamples, wantLost, len(flows)-wantLost, wantN)
		}
		if wantN > 0 && out.AggMean != time.Duration(wantW/float64(wantN)) {
			t.Fatalf("fail=%d: aggregate mean %v not re-derived from survivors", fail, out.AggMean)
		}
	}
}
