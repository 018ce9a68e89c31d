package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
)

func telemetryTestReport(n int) measure.Report {
	r := measure.Report{Estimator: "rli"}
	var w float64
	var cnt int64
	for i := 0; i < n; i++ {
		f := measure.FlowEstimate{
			Key:  packet.FlowKey{Src: packet.Addr(0x0a000001 + i), Dst: 0x0a000100, DstPort: 443, Proto: 6},
			Mean: time.Duration(100+i) * time.Microsecond,
			N:    int64(1 + i%3),
		}
		r.Flows = append(r.Flows, f)
		w += float64(f.Mean) * float64(f.N)
		cnt += f.N
	}
	r.AggSamples = cnt
	r.AggMean = time.Duration(w / float64(cnt))
	return r
}

// TestThinReportFrameLoss pins the loss model's mechanics: frames are
// frameRecords consecutive records, survivors keep their exact estimates,
// and the aggregate is re-derived from what survived.
func TestThinReportFrameLoss(t *testing.T) {
	rep := telemetryTestReport(40)
	thinned, total, dropped := thinReport(rep, 0.5, 8, telemetryRNG(7, "rli"))
	if total != 5 {
		t.Fatalf("40 records in frames of 8 = %d frames, want 5", total)
	}
	if dropped == 0 || dropped == total {
		t.Fatalf("50%% loss over 5 frames dropped %d; want a strict partial loss at this seed", dropped)
	}
	if got, want := len(thinned.Flows), 8*(total-dropped); got != want {
		t.Fatalf("thinned report keeps %d records, want %d (%d surviving frames)", got, want, total-dropped)
	}
	// Survivors are untouched record-for-record.
	kept := map[packet.FlowKey]measure.FlowEstimate{}
	for _, f := range rep.Flows {
		kept[f.Key] = f
	}
	var aggW float64
	var aggN int64
	for _, f := range thinned.Flows {
		if !reflect.DeepEqual(kept[f.Key], f) {
			t.Fatalf("surviving record %v was altered: %+v", f.Key, f)
		}
		aggW += float64(f.Mean) * float64(f.N)
		aggN += f.N
	}
	if thinned.AggSamples != aggN || thinned.AggMean != time.Duration(aggW/float64(aggN)) {
		t.Fatalf("aggregate not re-derived from survivors: %v/%d", thinned.AggMean, thinned.AggSamples)
	}

	// Determinism: the same seed reproduces the same losses.
	again, _, _ := thinReport(rep, 0.5, 8, telemetryRNG(7, "rli"))
	if !reflect.DeepEqual(thinned, again) {
		t.Fatal("thinning is not reproducible for a fixed seed")
	}
	// Zero loss is the identity.
	whole, total0, dropped0 := thinReport(rep, 0, 8, telemetryRNG(7, "rli"))
	if dropped0 != 0 || total0 != 5 || !reflect.DeepEqual(whole.Flows, rep.Flows) {
		t.Fatalf("zero loss must keep every frame: total=%d dropped=%d", total0, dropped0)
	}
}

// TestThinReportAggregateOnly pins the aggregate-only path: the whole
// deliverable is one frame, kept or lost atomically.
func TestThinReportAggregateOnly(t *testing.T) {
	rep := measure.Report{Estimator: "lda", AggMean: time.Millisecond, AggSamples: 1000}
	lost, total, dropped := thinReport(rep, 1-1e-9, 16, telemetryRNG(1, "lda"))
	if total != 1 || dropped != 1 || lost.AggSamples != 0 || lost.AggMean != 0 {
		t.Fatalf("near-certain loss must drop the single aggregate frame: total=%d dropped=%d %+v", total, dropped, lost)
	}
	whole, total, dropped := thinReport(rep, 0, 16, telemetryRNG(1, "lda"))
	if total != 1 || dropped != 0 || whole.AggSamples != 1000 {
		t.Fatalf("zero loss must keep the aggregate: total=%d dropped=%d %+v", total, dropped, whole)
	}
}

// TestTelemetrySpecValidation covers the new spec surface.
func TestTelemetrySpecValidation(t *testing.T) {
	spec := DefaultSpec()
	spec.Telemetry = &TelemetrySpec{LossRate: 0.3, FrameRecords: 8}
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid telemetry spec rejected: %v", err)
	}
	spec.Telemetry = &TelemetrySpec{LossRate: 1.0}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "telemetry loss rate") {
		t.Fatalf("loss rate 1.0 accepted (err=%v)", err)
	}
	spec.Telemetry = &TelemetrySpec{LossRate: -0.1}
	if err := spec.Validate(); err == nil {
		t.Fatal("negative loss rate accepted")
	}
	spec.Telemetry = &TelemetrySpec{LossRate: 0.3, FrameRecords: -1}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "frame_records") {
		t.Fatalf("negative frame_records accepted (err=%v)", err)
	}
	// The JSON front-end round-trips the new field.
	spec.Telemetry = &TelemetrySpec{LossRate: 0.25, FrameRecords: 4}
	data, err := spec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Telemetry, spec.Telemetry) {
		t.Fatalf("telemetry spec did not round-trip: %+v vs %+v", back.Telemetry, spec.Telemetry)
	}
}

// TestTelemetryLossScenarioMulti sweeps the registered scenario across
// seeds and checks the across-seed fold: the degraded coverage must be
// meaningfully below 1 with ~40% of frames dropped, while the surviving
// flows keep lossless accuracy (delta median error stays small).
func TestTelemetryLossScenarioMulti(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	sc, ok := Get("telemetry-loss")
	if !ok {
		t.Fatal("telemetry-loss not registered")
	}
	mr, err := RunMulti(sc.Spec, MultiOpts{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Telemetry.Rows) == 0 {
		t.Fatal("multi-seed sweep carries no telemetry fold")
	}
	if first := mr.Telemetry.Rows[0].Label; first != "rli" {
		t.Fatalf("first telemetry row is %q, want rli", first)
	}
	mean := func(col string) float64 {
		m, ok := mr.Telemetry.Cell("rli", col)
		if !ok {
			t.Fatalf("telemetry table has no rli %s cell", col)
		}
		return m.Mean
	}
	if dropped := mean("dropped"); dropped <= 0 {
		t.Fatalf("mean dropped frames %v, want > 0", dropped)
	}
	if cov := mean("coverage"); cov <= 0.2 || cov >= 0.95 {
		t.Fatalf("mean flow coverage %v; 40%% frame loss should land well inside (0.2, 0.95)", cov)
	}
	if delta := mean("deltaMedian"); math.Abs(delta) > 0.25 {
		t.Fatalf("loss shifts the median error by %v; survivors should keep near-lossless accuracy", delta)
	}
	if !strings.Contains(mr.Render(), "telemetry loss") {
		t.Fatal("multi-seed render omits the telemetry section")
	}
}

// TestLosslessTelemetryKeepsEveryAggregate pins the degraded aggregate to
// the estimator's own rule: with no frame dropped, every estimator's
// degraded row carries its lossless aggregate bit for bit — Multiflow's
// packet-weighted one and the samplers' Welford folds included — and a
// Multiflow report re-derived after an instance loss that takes none of its
// flows is the report it was.
func TestLosslessTelemetryKeepsEveryAggregate(t *testing.T) {
	sc, ok := Get("telemetry-loss")
	if !ok {
		t.Fatal("telemetry-loss not registered")
	}
	spec := sc.Spec
	spec.Telemetry = &TelemetrySpec{LossRate: 0, FrameRecords: spec.Telemetry.FrameRecords}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Telemetry.Rows) != len(res.Comparison) {
		t.Fatalf("%d telemetry rows for %d estimators", len(res.Telemetry.Rows), len(res.Comparison))
	}
	for _, row := range res.Telemetry.Rows {
		b, d := row.Baseline, row.Degraded
		if row.FramesDropped != 0 || d.AggMean != b.AggMean || d.AggSamples != b.AggSamples ||
			math.Float64bits(d.AggRelErr) != math.Float64bits(b.AggRelErr) {
			t.Errorf("%s: %d frames dropped; degraded aggregate %v over %d (rel err %v), lossless %v over %d (rel err %v)",
				row.Estimator, row.FramesDropped, d.AggMean, d.AggSamples, d.AggRelErr, b.AggMean, b.AggSamples, b.AggRelErr)
		}
	}

	mf := measure.Report{Estimator: "multiflow"}.WithFlows([]measure.FlowEstimate{
		{Key: packet.FlowKey{SrcPort: 1}, Mean: 10, N: 2, Weight: 90},
		{Key: packet.FlowKey{SrcPort: 2}, Mean: 40, N: 2, Weight: 10},
	})
	if mf.AggMean != 13 || mf.AggSamples != 100 {
		t.Fatalf("packet-weighted aggregate %v over %d, want 13ns over 100", mf.AggMean, mf.AggSamples)
	}
	if kept, lost := loseInstance(mf, 1, 1); lost != 0 || !reflect.DeepEqual(kept, mf) {
		t.Fatalf("an instance loss that takes no flow changed the report: %+v, %d lost", kept, lost)
	}
}
