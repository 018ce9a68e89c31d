package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
)

func smallLoc() LocalizationConfig {
	cfg := DefaultLocalizationConfig()
	cfg.Spec.Duration = 120 * time.Millisecond
	return cfg
}

func runLoc(t *testing.T, cfg LocalizationConfig) LocalizationResult {
	t.Helper()
	res, err := RunLocalization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLocalizationDstAggFault(t *testing.T) {
	res := runLoc(t, smallLoc()) // the default fault: destination pod 3, agg 0

	if len(res.Baseline) != 8 || len(res.Faulty) != 8 {
		t.Fatalf("segments = %d/%d, want 8 (4 up + 4 down)", len(res.Baseline), len(res.Faulty))
	}
	for i, b := range res.Baseline {
		if b.Packets == 0 || res.Faulty[i].Packets == 0 || b.Name != res.Faulty[i].Name {
			t.Fatalf("segment %d: baseline %+v, faulty %+v — every segment carries traffic in both passes", i, b, res.Faulty[i])
		}
	}
	if !res.Localized() {
		t.Fatalf("mislocalized: flagged %v, expected %v", res.Anomalies, res.ExpectedSegments)
	}
	// Exactly the downstream segments of core group 0 are flagged.
	if len(res.Anomalies) != 2 {
		t.Fatalf("flagged %v, want both group-0 downstream segments", res.Anomalies)
	}
	for _, a := range res.Anomalies {
		if !strings.HasPrefix(a.Segment, "core0.") || !strings.HasSuffix(a.Segment, "->tor3.0") {
			t.Fatalf("flagged wrong segment %q", a.Segment)
		}
	}
	if infl := res.FaultyInflation(); infl < 5 {
		t.Fatalf("a 300µs fault inflated its segments only %.1fx", infl)
	}
	if out := res.Table().Render(); !strings.Contains(out, "hop-delay agg3.0 +300µs") || !strings.Contains(out, "localized correctly: true") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestLocalizationSrcAggFault(t *testing.T) {
	cfg := smallLoc()
	cfg.Fault.AggPod, cfg.Fault.AggIdx = 0, 1 // the source ToR's pod
	res := runLoc(t, cfg)
	if !res.Localized() {
		t.Fatalf("mislocalized: flagged %v, expected %v", res.Anomalies, res.ExpectedSegments)
	}
	if len(res.Anomalies) != 2 {
		t.Fatalf("flagged %v, want both group-1 upstream segments", res.Anomalies)
	}
	for _, a := range res.Anomalies {
		if !strings.HasPrefix(a.Segment, "tor-uplink->core1.") {
			t.Fatalf("flagged wrong segment %q", a.Segment)
		}
	}
}

func TestLocalizationHealthyNetworkQuiet(t *testing.T) {
	cfg := smallLoc()
	cfg.Fault = nil
	res := runLoc(t, cfg)
	if len(res.Anomalies) != 0 {
		t.Fatalf("false positives on a healthy network: %v", res.Anomalies)
	}
	if !res.Localized() {
		t.Fatal("healthy network should report localized=true (no expectations, no flags)")
	}
}

// TestLocalizationPassesDifferOnlyInFaults pins what "calibration pass"
// means: the same spec, minus the fault held for the whole run.
func TestLocalizationPassesDifferOnlyInFaults(t *testing.T) {
	cfg := smallLoc()
	healthy, faulty := cfg.passes()
	for _, s := range []scenario.Spec{healthy, faulty} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	want := []scenario.FaultSpec{{Kind: scenario.FaultHopDelay, AggPod: 3, AggIdx: 0,
		Extra: 300 * time.Microsecond, Start: 0, End: cfg.Spec.Duration}}
	if len(healthy.Faults) != 0 || !reflect.DeepEqual(faulty.Faults, want) {
		t.Fatalf("faults: healthy %v, faulty %v, want none and %v", healthy.Faults, faulty.Faults, want)
	}
	faulty.Faults = nil
	if !reflect.DeepEqual(healthy, faulty) {
		t.Fatalf("the passes differ beyond Faults:\n%+v\n%+v", healthy, faulty)
	}
}

// TestLocalizationRunToRunIdentical: L1 is two scenario runs, so it inherits
// their determinism — the whole result, not only the verdict.
func TestLocalizationRunToRunIdentical(t *testing.T) {
	a, b := runLoc(t, smallLoc()), runLoc(t, smallLoc())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs at one seed differ:\n%s\n%s", a.Table().Render(), b.Table().Render())
	}
}

func TestLocalizationRejectsBadConfig(t *testing.T) {
	cfg := smallLoc()
	cfg.Fault.Kind = scenario.FaultLinkDegrade
	if _, err := RunLocalization(cfg); err == nil {
		t.Error("accepted a link-degrade fault")
	}
	cfg = smallLoc()
	cfg.Threshold = 1
	if _, err := RunLocalization(cfg); err == nil {
		t.Error("accepted threshold 1")
	}
	cfg = smallLoc()
	cfg.Fault.AggIdx = 9
	if _, err := RunLocalization(cfg); err == nil {
		t.Error("accepted an aggregation switch outside the pod")
	}
}
