// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each experiment
// describes its workload, runs it on the scenario engine (internal/scenario:
// the Figure-3 tandem harness and the fat-tree runner), and returns the
// series the paper plots; the cmd/experiments binary and the repository's
// benchmarks print them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// DemuxStrategy names the downstream demultiplexing options of §3.1.
type DemuxStrategy uint8

const (
	// DemuxNone associates every packet with one arbitrary reference
	// stream — the paper's "estimates can be totally wrong" baseline.
	DemuxNone DemuxStrategy = iota
	// DemuxMark uses ToS packet marking at cores.
	DemuxMark
	// DemuxReverseECMP replays upstream hash functions from topology
	// knowledge.
	DemuxReverseECMP
	// DemuxOracle uses simulator ground truth (upper bound).
	DemuxOracle
)

// demuxStrategies gives each strategy its rendered name (the -demux flag
// and A1 table vocabulary) and its scenario-spec value.
var demuxStrategies = [...]struct{ name, spec string }{
	DemuxNone:        {"none", scenario.DemuxNone},
	DemuxMark:        {"marking", scenario.DemuxMark},
	DemuxReverseECMP: {"reverse-ecmp", scenario.DemuxReverseECMP},
	DemuxOracle:      {"oracle", scenario.DemuxOracle},
}

func (d DemuxStrategy) String() string {
	if int(d) < len(demuxStrategies) {
		return demuxStrategies[d].name
	}
	return fmt.Sprintf("strategy(%d)", uint8(d))
}

// ParseDemuxStrategy is String's inverse; the error lists the valid names.
func ParseDemuxStrategy(s string) (DemuxStrategy, error) {
	names := make([]string, len(demuxStrategies))
	for d, st := range demuxStrategies {
		if st.name == s {
			return DemuxStrategy(d), nil
		}
		names[d] = st.name
	}
	return 0, fmt.Errorf("unknown demux strategy %q (valid: %s)", s, strings.Join(names, ", "))
}

// FatTreeConfig is one RLIR deployment run on a k-ary fat-tree: traffic
// from every other pod converges on one ToR (T7 in the paper's Figure 1),
// with RLI instances at source ToR uplinks (upstream senders), cores
// (receivers for the ToR->core segment, senders for core->ToR), and the
// destination ToR (downstream receiver using the strategy under test).
type FatTreeConfig struct {
	K          int
	LinkBps    float64
	QueueBytes int
	Duration   time.Duration
	Seed       int64
	Scheme     core.InjectionScheme
	Strategy   DemuxStrategy
	// DestPod / DestToR locate the monitored ToR (default pod K-1, ToR 0).
	DestPod, DestToR int
	// LoadFrac is the offered load as a fraction of the destination hosts'
	// aggregate link capacity.
	LoadFrac float64
	// CoreSkew differentiates the physical paths: the link from core (j,i)
	// toward the destination pod gets (j*K/2+i)*CoreSkew extra propagation
	// delay (cable length / hop asymmetry). Nonzero skew makes the paths'
	// latencies genuinely different, which is precisely when demultiplexing
	// matters: a packet attributed to the wrong reference stream inherits
	// the wrong path's baseline (§3.1, "the delay of a reference packet
	// that traverses one path may have no correlation with the delay of a
	// packet that traverses a different path").
	CoreSkew time.Duration
}

// DefaultFatTreeConfig returns a k=4 run at moderate load.
func DefaultFatTreeConfig() FatTreeConfig {
	return FatTreeConfig{
		K: 4, LinkBps: 1e9, QueueBytes: 256 << 10,
		Duration: 300 * time.Millisecond, Seed: 1,
		Scheme: core.Static{N: 50}, Strategy: DemuxReverseECMP,
		DestPod: 3, LoadFrac: 0.55,
		CoreSkew: 150 * time.Microsecond,
	}
}

// FatTreeResult reports one run.
type FatTreeResult struct {
	Config FatTreeConfig
	// Downstream is the per-flow accuracy at the destination ToR (the
	// segment core->ToR measured with the strategy under test).
	Downstream core.Summary
	// Misattribution is the fraction of classified packets whose stream
	// assignment disagrees with ground truth.
	Misattribution float64
	// Upstream aggregates the core-resident receivers (prefix demux).
	Upstream core.Summary
	// Packets injected.
	Injected int
}

// spec maps the config onto the scenario engine's vocabulary: the converging
// pattern onto one monitored ToR, with RLI as the only estimator.
func (cfg FatTreeConfig) spec() scenario.Spec {
	s := scenario.DefaultSpec()
	s.Name = "fattree-" + cfg.Strategy.String()
	s.Topology.K = cfg.K
	s.Topology.LinkBps = cfg.LinkBps
	s.Topology.QueueBytes = cfg.QueueBytes
	s.Topology.CoreSkew = cfg.CoreSkew
	s.Workload = scenario.WorkloadSpec{
		Pattern:  scenario.PatternConverging,
		LoadFrac: cfg.LoadFrac,
		DestPod:  cfg.DestPod,
		DestToR:  cfg.DestToR,
	}
	s.Deploy = scenario.DeploymentSpec{Estimators: []string{"rli"}}
	if int(cfg.Strategy) < len(demuxStrategies) {
		s.Deploy.Demux = demuxStrategies[cfg.Strategy].spec
	} else {
		s.Deploy.Demux = cfg.Strategy.String() // rejected by Validate, by name
	}
	switch sch := cfg.Scheme.(type) {
	case nil:
		s.Deploy.Scheme = scenario.SchemeStatic
	case core.Static:
		s.Deploy.Scheme, s.Deploy.StaticN = scenario.SchemeStatic, sch.N
	case core.Adaptive:
		// Fat-tree senders run without a utilization meter, so only the gap
		// bounds of an adaptive scheme are observable.
		s.Deploy.Scheme, s.Deploy.MinGap, s.Deploy.MaxGap = scenario.SchemeAdaptive, sch.MinGap, sch.MaxGap
	default:
		panic(fmt.Sprintf("experiments: fat-tree runs take a static or adaptive scheme, not %s", sch.Name()))
	}
	s.Duration = cfg.Duration
	s.Seed = cfg.Seed
	return s
}

// RunFatTree executes one fat-tree RLIR deployment on the scenario engine.
func RunFatTree(cfg FatTreeConfig) FatTreeResult {
	r, err := scenario.Run(cfg.spec())
	if err != nil {
		panic(err)
	}
	return FatTreeResult{
		Config:         cfg,
		Downstream:     r.Overall,
		Misattribution: r.Misattribution,
		Upstream:       r.Upstream,
		Injected:       r.Injected,
	}
}

// AblationDemux runs every strategy on the identical workload (A1 in
// DESIGN.md): it shows prefix/mark/reverse-ECMP matching the oracle and the
// no-demux baseline degrading, the paper's "totally wrong" claim.
func AblationDemux(cfg FatTreeConfig) DemuxAblation {
	strategies := []DemuxStrategy{DemuxOracle, DemuxReverseECMP, DemuxMark, DemuxNone}
	out := make(DemuxAblation, 0, len(strategies))
	for _, s := range strategies {
		c := cfg
		c.Strategy = s
		out = append(out, RunFatTree(c))
	}
	return out
}

// DemuxAblation is the A1 table: one fat-tree run per strategy.
type DemuxAblation []FatTreeResult

// Render formats A1 as a table.
func (results DemuxAblation) Render() string {
	var b strings.Builder
	b.WriteString("== A1: downstream demultiplexing strategies (k-ary fat-tree) ==\n")
	fmt.Fprintf(&b, "%-14s %-8s %-14s %-14s %-12s %-12s\n",
		"strategy", "flows", "medianRelErr", "under10%", "misattrib", "upstreamMed")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %-8d %-14.4f %-14.1f %-12.4f %-12.4f\n",
			r.Config.Strategy, r.Downstream.Flows, r.Downstream.MedianRelErr,
			r.Downstream.FracUnder10Pct*100, r.Misattribution, r.Upstream.MedianRelErr)
	}
	b.WriteString("note: paper §3.1 — without demux, estimates at multiplexed receivers 'can be totally wrong'\n")
	return b.String()
}

// Table is A1 in across-seed form.
func (results DemuxAblation) Table() stats.Table {
	t := stats.Table{
		Title:     "A1: downstream demultiplexing strategies (k-ary fat-tree)",
		RowHeader: "strategy",
		Columns:   []string{"misattribution", "downstreamMedian"},
		Notes:     []string{"paper §3.1 — without demux, estimates at multiplexed receivers 'can be totally wrong'"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, stats.TableRow{
			Label: r.Config.Strategy.String(),
			Cells: []float64{r.Misattribution, r.Downstream.MedianRelErr},
		})
	}
	return t
}
