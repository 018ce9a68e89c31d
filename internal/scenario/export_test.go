package scenario

import (
	"testing"

	"github.com/netmeasure/rlir/internal/collector"
)

// TestExportMatchesRun proves the capture taps are passive: an Export run
// returns the same Result as a plain run, the captured samples replay into
// a collector bit-identically to the run's own Fleet table, and the records
// summarize exactly the delivered regular traffic.
func TestExportMatchesRun(t *testing.T) {
	sc, ok := Get("baseline-tandem")
	if !ok {
		t.Fatal("baseline-tandem not registered")
	}
	spec := sc.Spec

	tr, err := Export(spec, spec.Seed)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	plain, err := RunSeed(spec, spec.Seed)
	if err != nil {
		t.Fatalf("RunSeed: %v", err)
	}
	if tr.Result.Overall != plain.Overall {
		t.Errorf("capture perturbed the run: %+v vs %+v", tr.Result.Overall, plain.Overall)
	}
	if uint64(len(tr.Samples)) != plain.Samples {
		t.Fatalf("captured %d samples, run streamed %d", len(tr.Samples), plain.Samples)
	}

	// Replay equivalence: the captured stream folded into a fresh collector
	// reproduces the run's fleet table bit-for-bit.
	c := collector.New(collector.Config{Shards: 3})
	c.Ingest(tr.Samples)
	c.Close()
	replayed := c.Snapshot()
	if len(replayed) != len(plain.Fleet) {
		t.Fatalf("replay has %d flows, run fleet has %d", len(replayed), len(plain.Fleet))
	}
	for i := range replayed {
		a, b := replayed[i], plain.Fleet[i]
		if a.Key != b.Key || a.Est != b.Est || a.True != b.True {
			t.Fatalf("flow %d diverged:\nreplay %+v\nrun    %+v", i, a, b)
		}
	}

	if len(tr.Records) == 0 {
		t.Fatal("no NetFlow records captured")
	}
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i-1].Key.Compare(tr.Records[i].Key) >= 0 {
			t.Fatalf("records not strictly sorted at %d", i)
		}
	}

	// Determinism: a second export is identical.
	tr2, err := Export(spec, spec.Seed)
	if err != nil {
		t.Fatalf("second Export: %v", err)
	}
	if len(tr2.Samples) != len(tr.Samples) || len(tr2.Records) != len(tr.Records) {
		t.Fatalf("export not deterministic: %d/%d samples, %d/%d records",
			len(tr2.Samples), len(tr.Samples), len(tr2.Records), len(tr.Records))
	}
	for i := range tr.Samples {
		if tr.Samples[i] != tr2.Samples[i] {
			t.Fatalf("sample %d diverged across exports", i)
		}
	}
}

// TestExportFatTree covers the fat-tree capture path.
func TestExportFatTree(t *testing.T) {
	sc, ok := Get("degraded-link")
	if !ok {
		t.Fatal("degraded-link not registered")
	}
	tr, err := Export(sc.Spec, sc.Spec.Seed)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if len(tr.Samples) == 0 || len(tr.Records) == 0 {
		t.Fatalf("empty capture: %d samples, %d records", len(tr.Samples), len(tr.Records))
	}
	if uint64(len(tr.Samples)) != tr.Result.Samples {
		t.Fatalf("captured %d samples, run streamed %d", len(tr.Samples), tr.Result.Samples)
	}
	// Each record is one delivered flow; delivered flows must cover every
	// flow the receivers estimated.
	recKeys := map[string]bool{}
	for _, r := range tr.Records {
		recKeys[r.Key.String()] = true
	}
	for _, a := range tr.Result.Fleet {
		if !recKeys[a.Key.String()] {
			t.Fatalf("estimated flow %v missing from the exporter records", a.Key)
		}
	}
}
