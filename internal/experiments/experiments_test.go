package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/scenario"
)

// testBase is small enough for CI but large enough for stable medians.
func testBase() scenario.Spec {
	s, err := scenario.TandemSpec("small")
	if err != nil {
		panic(err)
	}
	return s
}

func TestRunTandemBasics(t *testing.T) {
	r := run(point(testBase(), scenario.SchemeStatic, scenario.CrossUniform, 0.67))
	if r.Overall.Flows < 20 {
		t.Fatalf("flows = %d, workload too thin", r.Overall.Flows)
	}
	if r.Receiver.RefsSeen == 0 || r.Receiver.Estimated == 0 {
		t.Fatalf("receiver counters = %+v", r.Receiver)
	}
	if r.Sender.Injected == 0 {
		t.Fatalf("sender injected nothing: %+v", r.Sender)
	}
	if r.CrossAdmitted == 0 {
		t.Fatal("no cross traffic admitted")
	}
	// Utilization should land near the target (cross calibration).
	if math.Abs(r.HotLinkUtil-0.67) > 0.12 {
		t.Fatalf("achieved util %.2f, target 0.67", r.HotLinkUtil)
	}
	if got := r.Spec.Label(); got != "static(1-and-100), random, 67%" {
		t.Fatalf("label = %q", got)
	}
}

func TestTandemUtilizationCalibration(t *testing.T) {
	// The injector must track different targets, including past the
	// regular-only baseline.
	for _, target := range []float64{0.34, 0.93} {
		r := run(point(testBase(), scenario.SchemeNone, scenario.CrossUniform, target))
		if math.Abs(r.HotLinkUtil-target) > 0.12 {
			t.Fatalf("target %.2f achieved %.2f", target, r.HotLinkUtil)
		}
	}
}

func TestTandemNoCrossMatchesBaseUtil(t *testing.T) {
	r := run(point(testBase(), scenario.SchemeNone, scenario.CrossNone, 0))
	if want := testBase().Workload.LoadFrac; math.Abs(r.HotLinkUtil-want) > 0.08 {
		t.Fatalf("base util %.2f, want ~%.2f", r.HotLinkUtil, want)
	}
	if r.CrossAdmitted != 0 {
		t.Fatal("cross admitted without a model")
	}
	if r.Sender != (core.SenderCounters{}) || r.Receiver.RefsSeen != 0 {
		t.Fatalf("scheme none deployed a sender: %+v, %+v", r.Sender, r.Receiver)
	}
}

func TestTandemDeterministicAcrossRuns(t *testing.T) {
	s := point(testBase(), scenario.SchemeStatic, scenario.CrossUniform, 0.8)
	a, b := run(s), run(s)
	if a.Overall.MedianRelErr != b.Overall.MedianRelErr ||
		a.Receiver.Estimated != b.Receiver.Estimated ||
		a.RegularDropped != b.RegularDropped {
		t.Fatal("tandem run not deterministic")
	}
}

func TestAdaptiveSenderPinsAtMinGap(t *testing.T) {
	// The paper's observation: the sender's own link sits at ~22%, so the
	// live adaptive scheme injects at its maximum rate — ~10x static's.
	adaptive := run(point(testBase(), scenario.SchemeAdaptive, scenario.CrossUniform, 0.67))
	static := run(point(testBase(), scenario.SchemeStatic, scenario.CrossUniform, 0.67))
	ratio := float64(adaptive.Sender.Injected) / float64(static.Sender.Injected)
	if ratio < 7 || ratio > 13 {
		t.Fatalf("adaptive/static injection ratio = %.1f, want ~10", ratio)
	}
}

func TestFig4aShape(t *testing.T) {
	f := Fig4a(testBase())
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range f.Series {
		byLabel[s.Label] = s
		if s.CDF.N() == 0 {
			t.Fatalf("series %q empty", s.Label)
		}
	}
	// Shape 1: at 93%, errors are lower than at 67% (same scheme).
	s93 := byLabel["static(1-and-100), random, 93%"]
	s67 := byLabel["static(1-and-100), random, 67%"]
	if s93.CDF.Median() >= s67.CDF.Median() {
		t.Errorf("static: median@93 %.3f should beat median@67 %.3f",
			s93.CDF.Median(), s67.CDF.Median())
	}
	// Shape 2: adaptive (pinned at 1-and-10) beats static at the same util.
	a93 := byLabel["adaptive(1-and-10..300), random, 93%"]
	if a93.CDF.Median() > s93.CDF.Median() {
		t.Errorf("adaptive median %.3f should be <= static %.3f at 93%%",
			a93.CDF.Median(), s93.CDF.Median())
	}
	if f.Table().Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4bShape(t *testing.T) {
	f := Fig4b(testBase())
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	var a93, a67 Series
	for _, s := range f.Series {
		switch s.Label {
		case "adaptive(1-and-10..300), random, 93%":
			a93 = s
		case "adaptive(1-and-10..300), random, 67%":
			a67 = s
		}
	}
	if a93.CDF == nil || a67.CDF == nil {
		t.Fatal("missing adaptive series")
	}
	// Shape: stddev estimates are better at higher utilization.
	if a93.CDF.FracBelow(0.10) <= a67.CDF.FracBelow(0.10) {
		t.Errorf("std err under-10%%: 93%%=%.2f should exceed 67%%=%.2f",
			a93.CDF.FracBelow(0.10), a67.CDF.FracBelow(0.10))
	}
}

func TestFig4cShape(t *testing.T) {
	f := Fig4c(testBase())
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	var bursty67, random67 Series
	for _, s := range f.Series {
		switch s.Label {
		case "static(1-and-100), bursty, 67%":
			bursty67 = s
		case "static(1-and-100), random, 67%":
			random67 = s
		}
	}
	if bursty67.CDF == nil || random67.CDF == nil {
		t.Fatal("missing series")
	}
	// Shape: bursty cross traffic -> markedly better accuracy at equal
	// average utilization (paper: ~an order of magnitude).
	if bursty67.CDF.Median() >= random67.CDF.Median() {
		t.Errorf("bursty median %.4f should beat random median %.4f",
			bursty67.CDF.Median(), random67.CDF.Median())
	}
	// And bursty true delays are much larger.
	if bursty67.Meta["trueMeanUs"] <= random67.Meta["trueMeanUs"] {
		t.Errorf("bursty true mean %.1fµs should exceed random %.1fµs",
			bursty67.Meta["trueMeanUs"], random67.Meta["trueMeanUs"])
	}
}

func TestFig5Shape(t *testing.T) {
	// Interference is a small systematic effect (~1% extra packets from the
	// adaptive scheme) riding on chaotic queue noise, so this test runs a
	// longer trace with a tight queue: enough drop events for the signal to
	// dominate the run-to-run reshuffling.
	base := testBase()
	base.Duration = time.Second
	base.Topology.QueueBytes = 32 << 10
	r := Fig5(base, []float64{0.98})
	if len(r.Points) != 1 {
		t.Fatalf("points = %d", len(r.Points))
	}
	p := r.Points[0]
	if p.BaseLoss == 0 {
		t.Fatal("no baseline loss at 98% with a 32KB queue: simulator broken")
	}
	// Adaptive injects ~10x static's probes; its interference must be
	// positive and no smaller than static's beyond noise.
	if p.AdaptiveDiff <= 0 {
		t.Errorf("adaptive interference = %+.6f, want positive", p.AdaptiveDiff)
	}
	if p.AdaptiveDiff < p.StaticDiff-1e-3 {
		t.Errorf("adaptive diff %+.6f should be >= static diff %+.6f",
			p.AdaptiveDiff, p.StaticDiff)
	}
	if r.Table().Render() == "" {
		t.Fatal("empty render")
	}
}

func TestScalars(t *testing.T) {
	s := RunScalars(testBase())
	if math.Abs(s.BaseUtil-0.22) > 0.08 {
		t.Fatalf("base util %.2f, want ~0.22", s.BaseUtil)
	}
	if s.AdaptiveGap != 10 {
		t.Fatalf("adaptive gap %d, want 10 (paper)", s.AdaptiveGap)
	}
	// Latency ordering: 93% random > 67% random; 67% bursty > 67% random.
	if s.TrueMean93Random <= s.TrueMean67Random {
		t.Errorf("93%% mean %v should exceed 67%% mean %v", s.TrueMean93Random, s.TrueMean67Random)
	}
	if s.TrueMean67Bursty <= s.TrueMean67Random {
		t.Errorf("bursty mean %v should exceed random mean %v", s.TrueMean67Bursty, s.TrueMean67Random)
	}
	if !strings.Contains(s.Table().Render(), "paper: ~0.22") {
		t.Fatal("render missing paper reference")
	}
}

func TestCrossModelString(t *testing.T) {
	for _, m := range []scenario.CrossModel{scenario.CrossUniform, scenario.CrossBursty, scenario.CrossNone, scenario.CrossModel("fractal")} {
		if m.String() == "" {
			t.Fatal("empty model name")
		}
	}
}

// TestScalesSane pins the three base specs behind the CLIs' -scale names.
func TestScalesSane(t *testing.T) {
	for _, name := range []string{"small", "default", "full"} {
		s, err := scenario.TandemSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil || s.Topology.Kind != scenario.TopoTandem {
			t.Fatalf("%s: %+v does not validate as a tandem: %v", name, s, err)
		}
		if s.Workload.LoadFrac != 0.22 || s.Deploy.StaticN != 100 || s.Seed != 1 {
			t.Fatalf("%s: not the paper's operating point: %+v", name, s)
		}
	}
	full, _ := scenario.TandemSpec("full")
	if full.Topology.LinkBps != 10e9 || full.Duration != 60*time.Second {
		t.Fatal("full scale should match the paper's OC-192 minute")
	}
	if _, err := scenario.TandemSpec("galactic"); err == nil || !strings.Contains(err.Error(), "small, default, full") {
		t.Fatalf("TandemSpec(galactic) = %v, want an error listing the valid scales", err)
	}
}
