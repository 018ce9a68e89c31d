package rlir_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// TestGoldenDeterminism pins the simulation output bit-for-bit: the same
// seed must produce the identical tandem-spec summaries and figure metrics
// across engine rewrites. The fixture in testdata/golden_engine.json was
// captured from the first engine, a container/heap of closure events, and
// still holds for the typed-event radix heap; any change to event ordering,
// trace generation, or estimator arithmetic shows up here as an exact-value
// mismatch.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test -run TestGoldenDeterminism -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_engine.json from the current engine")

// goldenFloat holds a float64 both as its exact bit pattern (compared) and
// as a human-readable value (diagnostics only).
type goldenFloat struct {
	Bits  uint64  `json:"bits"`
	Value float64 `json:"value"`
}

func gf(v float64) goldenFloat { return goldenFloat{Bits: math.Float64bits(v), Value: v} }

type goldenTandem struct {
	Name           string      `json:"name"`
	RegularOffered uint64      `json:"regular_offered"`
	RegularDropped uint64      `json:"regular_dropped"`
	CrossAdmitted  uint64      `json:"cross_admitted"`
	RefsSeen       uint64      `json:"refs_seen"`
	RegularSeen    uint64      `json:"regular_seen"`
	Estimated      uint64      `json:"estimated"`
	SenderInjected uint64      `json:"sender_injected"`
	Flows          int         `json:"flows"`
	Estimates      int64       `json:"estimates"`
	MedianRelErr   goldenFloat `json:"median_rel_err"`
	P90RelErr      goldenFloat `json:"p90_rel_err"`
	FracUnder10Pct goldenFloat `json:"frac_under_10pct"`
	TrueMeanDelay  int64       `json:"true_mean_delay_ns"`
	AchievedUtil   goldenFloat `json:"achieved_util"`
}

type goldenFigure struct {
	ID      string        `json:"id"`
	Labels  []string      `json:"labels"`
	Medians []goldenFloat `json:"medians"`
	Counts  []int         `json:"counts"`
}

// goldenFatTree pins one A1 strategy's fat-tree run. The section was
// captured from the stand-alone experiments fat-tree runner before it became
// a client of the scenario engine, so it proves the two builds of the §3.1
// deployment were the same deployment.
type goldenFatTree struct {
	Strategy         string      `json:"strategy"`
	Injected         int         `json:"injected"`
	DownFlows        int         `json:"down_flows"`
	DownEstimates    int64       `json:"down_estimates"`
	DownMedianRelErr goldenFloat `json:"down_median_rel_err"`
	DownP90RelErr    goldenFloat `json:"down_p90_rel_err"`
	Misattribution   goldenFloat `json:"misattribution"`
	UpFlows          int         `json:"up_flows"`
	UpMedianRelErr   goldenFloat `json:"up_median_rel_err"`
}

type goldenFile struct {
	Tandems  []goldenTandem  `json:"tandems"`
	Figures  []goldenFigure  `json:"figures"`
	FatTrees []goldenFatTree `json:"fattrees"`
}

// goldenTandemSpecs are the four Figure-3 runs the fixture pins, named as
// the fixture names them.
func goldenTandemSpecs(t *testing.T) []rlir.ScenarioSpec {
	spec := func(name, scheme string, model rlir.CrossModel, util float64) rlir.ScenarioSpec {
		s := smallTandem(t)
		s.Name = name
		s.Deploy.Scheme = scheme
		s.Workload.CrossModel, s.Workload.CrossUtil = model, util
		return s
	}
	return []rlir.ScenarioSpec{
		spec("static-uniform-93", "static", rlir.CrossUniform, 0.93),
		spec("adaptive-live-bursty-90", "adaptive", rlir.CrossBursty, 0.90),
		spec("noscheme-uniform-98", "none", rlir.CrossUniform, 0.98),
		spec("static-none", "static", rlir.CrossNone, 0),
	}
}

func captureGolden(t *testing.T) goldenFile {
	t.Helper()
	var out goldenFile
	for _, spec := range goldenTandemSpecs(t) {
		r, err := rlir.RunScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		out.Tandems = append(out.Tandems, goldenTandem{
			Name:           spec.Name,
			RegularOffered: uint64(r.Injected),
			RegularDropped: r.RegularDropped,
			CrossAdmitted:  r.CrossAdmitted,
			RefsSeen:       r.Receiver.RefsSeen,
			RegularSeen:    r.Receiver.RegularSeen,
			Estimated:      r.Receiver.Estimated,
			SenderInjected: r.Sender.Injected,
			Flows:          r.Overall.Flows,
			Estimates:      r.Overall.Estimates,
			MedianRelErr:   gf(r.Overall.MedianRelErr),
			P90RelErr:      gf(r.Overall.P90RelErr),
			FracUnder10Pct: gf(r.Overall.FracUnder10Pct),
			TrueMeanDelay:  int64(r.Overall.TrueMeanDelay / time.Nanosecond),
			AchievedUtil:   gf(r.HotLinkUtil),
		})
	}
	fig := rlir.Fig4a(smallTandem(t))
	gfig := goldenFigure{ID: fig.ID}
	for _, s := range fig.Series {
		gfig.Labels = append(gfig.Labels, s.Label)
		gfig.Medians = append(gfig.Medians, gf(s.CDF.Median()))
		gfig.Counts = append(gfig.Counts, s.CDF.N())
	}
	out.Figures = append(out.Figures, gfig)

	ftSpec := rlir.DefaultFatTreeSpec()
	ftSpec.Duration = 120 * time.Millisecond
	a1, err := rlir.AblationDemux(ftSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a1 {
		out.FatTrees = append(out.FatTrees, goldenFatTree{
			Strategy:         r.Spec.Deploy.Demux,
			Injected:         r.Injected,
			DownFlows:        r.Overall.Flows,
			DownEstimates:    r.Overall.Estimates,
			DownMedianRelErr: gf(r.Overall.MedianRelErr),
			DownP90RelErr:    gf(r.Overall.P90RelErr),
			Misattribution:   gf(r.Misattribution),
			UpFlows:          r.Upstream.Flows,
			UpMedianRelErr:   gf(r.Upstream.MedianRelErr),
		})
	}
	return out
}

func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden determinism run is a multi-simulation test; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_engine.json")
	got := captureGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	if len(got.Tandems) != len(want.Tandems) {
		t.Fatalf("tandem count %d != fixture %d", len(got.Tandems), len(want.Tandems))
	}
	for i, g := range got.Tandems {
		w := want.Tandems[i]
		if g.Name != w.Name {
			t.Fatalf("tandem %d name %q != fixture %q", i, g.Name, w.Name)
		}
		checkUint := func(field string, got, want uint64) {
			if got != want {
				t.Errorf("%s: %s = %d, fixture %d", g.Name, field, got, want)
			}
		}
		checkFloat := func(field string, got, want goldenFloat) {
			if got.Bits != want.Bits {
				t.Errorf("%s: %s = %v (bits %x), fixture %v (bits %x)",
					g.Name, field, got.Value, got.Bits, want.Value, want.Bits)
			}
		}
		checkUint("RegularOffered", g.RegularOffered, w.RegularOffered)
		checkUint("RegularDropped", g.RegularDropped, w.RegularDropped)
		checkUint("CrossAdmitted", g.CrossAdmitted, w.CrossAdmitted)
		checkUint("RefsSeen", g.RefsSeen, w.RefsSeen)
		checkUint("RegularSeen", g.RegularSeen, w.RegularSeen)
		checkUint("Estimated", g.Estimated, w.Estimated)
		checkUint("SenderInjected", g.SenderInjected, w.SenderInjected)
		if g.Flows != w.Flows || g.Estimates != w.Estimates {
			t.Errorf("%s: flows/estimates %d/%d, fixture %d/%d",
				g.Name, g.Flows, g.Estimates, w.Flows, w.Estimates)
		}
		checkFloat("MedianRelErr", g.MedianRelErr, w.MedianRelErr)
		checkFloat("P90RelErr", g.P90RelErr, w.P90RelErr)
		checkFloat("FracUnder10Pct", g.FracUnder10Pct, w.FracUnder10Pct)
		if g.TrueMeanDelay != w.TrueMeanDelay {
			t.Errorf("%s: TrueMeanDelay %dns, fixture %dns", g.Name, g.TrueMeanDelay, w.TrueMeanDelay)
		}
		checkFloat("AchievedUtil", g.AchievedUtil, w.AchievedUtil)
	}

	if len(got.Figures) != len(want.Figures) {
		t.Fatalf("figure count %d != fixture %d", len(got.Figures), len(want.Figures))
	}
	for i, g := range got.Figures {
		w := want.Figures[i]
		if g.ID != w.ID || len(g.Medians) != len(w.Medians) {
			t.Fatalf("figure %d shape mismatch: %s/%d vs fixture %s/%d",
				i, g.ID, len(g.Medians), w.ID, len(w.Medians))
		}
		for j := range g.Medians {
			if g.Labels[j] != w.Labels[j] {
				t.Errorf("%s series %d label %q != fixture %q", g.ID, j, g.Labels[j], w.Labels[j])
			}
			if g.Counts[j] != w.Counts[j] {
				t.Errorf("%s series %q N = %d, fixture %d", g.ID, g.Labels[j], g.Counts[j], w.Counts[j])
			}
			if g.Medians[j].Bits != w.Medians[j].Bits {
				t.Errorf("%s series %q median = %v, fixture %v",
					g.ID, g.Labels[j], g.Medians[j].Value, w.Medians[j].Value)
			}
		}
	}

	if len(got.FatTrees) != len(want.FatTrees) {
		t.Fatalf("fat-tree count %d != fixture %d", len(got.FatTrees), len(want.FatTrees))
	}
	for i, g := range got.FatTrees {
		if w := want.FatTrees[i]; g != w {
			t.Errorf("fat-tree %s:\n got     %+v\n fixture %+v", g.Strategy, g, w)
		}
	}
}
