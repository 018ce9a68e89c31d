package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// Run-to-run determinism, on the whole Result: the same spec and seed must
// reproduce every field bit for bit (reflect.DeepEqual), not only the
// headline numbers TestRunDeterministic reads. The adversarial and
// trace-driven families ride the same bar: their hooks (selective delay,
// link emulation, replication) are pure per (packet, instant), and this pins
// that they actually are.

// canon replaces r's NaN floats with a sentinel: an estimator with no samples
// reports NaN error quantiles, and NaN is never DeepEqual to itself.
func canon(r *Result) { canonNaN(reflect.ValueOf(r).Elem()) }

func canonNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		if math.IsNaN(v.Float()) && v.CanSet() {
			v.SetFloat(-123456789.5)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonNaN(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			canonNaN(v.Index(i))
		}
	case reflect.Ptr:
		if !v.IsNil() {
			canonNaN(v.Elem())
		}
	}
}

// sameResult reports whether two Results are identical once NaNs compare
// equal. It canonicalizes both in place.
func sameResult(a, b *Result) bool {
	canon(a)
	canon(b)
	return reflect.DeepEqual(a, b)
}

func TestRegistryRunToRunIdentical(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			first, err := Run(sc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(sc.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(first, second) {
				t.Errorf("two runs of %s differ", sc.Name)
			}
		})
	}
}

// TestFaultsExportRunToRunIdentical exercises the pieces the registry's
// CI-sized specs may not cover together: mid-run faults on a core port and a
// pod switch, core skew, telemetry re-scoring and an export capture.
func TestFaultsExportRunToRunIdentical(t *testing.T) {
	spec := DefaultSpec()
	spec.Name = "faults-export"
	spec.Duration = 40 * time.Millisecond
	spec.Topology.CoreSkew = 200 * time.Nanosecond
	spec.Faults = []FaultSpec{
		{Kind: FaultLinkDegrade, CoreJ: 0, CoreI: 1, DownPod: 3, Start: 5 * time.Millisecond, End: 20 * time.Millisecond, RateFactor: 0.25},
		{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0, Start: 10 * time.Millisecond, End: 30 * time.Millisecond, Extra: 3 * time.Microsecond},
	}
	spec.Telemetry = &TelemetrySpec{LossRate: 0.2}

	first, err := Export(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Export(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Samples) == 0 || len(first.Records) == 0 {
		t.Fatalf("empty capture: %d samples, %d records", len(first.Samples), len(first.Records))
	}
	if !sameResult(first.Result, second.Result) {
		t.Error("Result differs between two exports")
	}
	if !reflect.DeepEqual(first.Samples, second.Samples) {
		t.Error("export sample stream differs between two exports")
	}
	if !reflect.DeepEqual(first.Records, second.Records) {
		t.Error("export meter records differ between two exports")
	}
}

// TestEngineFieldsAreInert holds the deprecated Spec.Engine / Spec.Partitions
// to their documentation, with the comparison the pipeline benchmark's
// parallel leg makes on every run (bench/stages.go parSlice): setting them
// changes nothing but their own echo in Result.Spec.
func TestEngineFieldsAreInert(t *testing.T) {
	sc, ok := Get("fattree-allpairs")
	if !ok {
		t.Fatal("fattree-allpairs not registered")
	}
	want, err := Export(sc.Spec, sc.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	set := sc.Spec
	set.Engine, set.Partitions = EngineParallel, 2
	got, err := Export(set, set.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Spec.Engine != EngineParallel || got.Result.Spec.Partitions != 2 {
		t.Errorf("Result.Spec echoes engine %q partitions %d, want the spec's own %q and 2",
			got.Result.Spec.Engine, got.Result.Spec.Partitions, EngineParallel)
	}
	got.Result.Spec.Engine, got.Result.Spec.Partitions = "", 0
	if !sameResult(got.Result, want.Result) {
		t.Error("Result differs once Engine and Partitions are set")
	}
	if !reflect.DeepEqual(got.Samples, want.Samples) {
		t.Error("export sample stream differs once Engine and Partitions are set")
	}
}
