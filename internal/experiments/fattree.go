// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each experiment
// describes its workload, runs it on the scenario engine (internal/scenario:
// the Figure-3 tandem harness and the fat-tree runner), and returns the
// series the paper plots; the cmd/experiments binary and the repository's
// benchmarks print them.
package experiments

import (
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// DefaultFatTreeSpec returns the k=4 RLIR deployment of §3.1 at moderate
// load, as a scenario spec: traffic from every other pod converges on one
// ToR (T7 in the paper's Figure 1), with RLI instances at source ToR uplinks
// (upstream senders), cores (receivers for the ToR->core segment, senders for
// core->ToR) and the destination ToR (downstream receiver using the spec's
// demux strategy). RLI is the only estimator attached. The nonzero CoreSkew
// makes the core paths' latencies genuinely different, which is precisely
// when demultiplexing matters: a packet attributed to the wrong reference
// stream inherits the wrong path's baseline (§3.1, "the delay of a reference
// packet that traverses one path may have no correlation with the delay of a
// packet that traverses a different path").
func DefaultFatTreeSpec() scenario.Spec {
	s := scenario.DefaultSpec()
	s.Name = "fattree"
	s.Topology.CoreSkew = 150 * time.Microsecond
	s.Workload.DestPod = 3
	s.Deploy.Estimators = []string{"rli"}
	return s
}

// AblationDemux runs every downstream demultiplexing strategy of §3.1 on the
// identical workload (A1 in DESIGN.md): it shows marking and reverse-ECMP
// matching the oracle and the no-demux baseline degrading, the paper's
// "totally wrong" claim. The error is the spec's validation error.
func AblationDemux(spec scenario.Spec) (DemuxAblation, error) {
	strategies := []string{scenario.DemuxOracle, scenario.DemuxReverseECMP, scenario.DemuxMark, scenario.DemuxNone}
	out := make(DemuxAblation, 0, len(strategies))
	for _, d := range strategies {
		spec.Deploy.Demux = d
		r, err := scenario.Run(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DemuxAblation is the A1 table: one fat-tree run per strategy
// (Spec.Deploy.Demux names it). Overall is the per-flow accuracy at the
// destination ToR, measured with the strategy under test; Upstream
// aggregates the core-resident receivers (prefix demux).
type DemuxAblation []*scenario.Result

const a1Title = "A1: downstream demultiplexing strategies (k-ary fat-tree)"

// Table is A1, one row per strategy: the destination ToR's flows and
// accuracy, the demux's misattribution, and the upstream (core-resident)
// receivers' median error.
func (results DemuxAblation) Table() stats.Table {
	t := stats.Table{
		Title:     a1Title,
		RowHeader: "strategy",
		Columns:   []string{"flows", "downstreamMedian", "fracUnder10%", "misattribution", "upstreamMedian"},
		Notes:     []string{"paper §3.1 — without demux, estimates at multiplexed receivers 'can be totally wrong'"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, stats.TableRow{
			Label: r.Spec.Deploy.Demux,
			Cells: []float64{float64(r.Overall.Flows), r.Overall.MedianRelErr, r.Overall.FracUnder10Pct,
				r.Misattribution, r.Upstream.MedianRelErr},
		})
	}
	return t
}
