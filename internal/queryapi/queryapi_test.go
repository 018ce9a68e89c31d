package queryapi

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// buildSnapshot runs a real collector over a random stream and returns its
// final sorted flow table.
func buildSnapshot(t testing.TB, seed int64) []collector.FlowAgg {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]packet.FlowKey, 1+rng.Intn(30))
	for i := range keys {
		keys[i] = packet.FlowKey{
			Src:     packet.Addr(rng.Uint32()),
			Dst:     packet.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   packet.ProtoTCP,
		}
	}
	coll := collector.New(collector.Config{Shards: 2})
	for b := 0; b < 10; b++ {
		smps := make([]collector.Sample, 1+rng.Intn(80))
		for i := range smps {
			smps[i] = collector.Sample{
				Key:  keys[rng.Intn(len(keys))],
				Est:  time.Duration(rng.Int63n(int64(time.Second))),
				True: time.Duration(rng.Int63n(int64(time.Second))),
			}
		}
		coll.Ingest(smps)
		if rng.Intn(2) == 0 {
			coll.IngestRecords([]netflow.Record{{
				Key:     keys[rng.Intn(len(keys))],
				Packets: uint64(1 + rng.Intn(50)),
				Bytes:   uint64(64 * (1 + rng.Intn(100))),
				First:   simtime.Time(rng.Int63n(int64(time.Second))),
				Last:    simtime.Time(rng.Int63n(int64(time.Second))),
			}})
		}
	}
	coll.Close()
	return coll.Snapshot()
}

// TestFlowRowMatchesAggDerivation spot-checks the row renderer against the
// aggregate's own accessors.
func TestFlowRowMatchesAggDerivation(t *testing.T) {
	aggs := buildSnapshot(t, 5)
	for i := range aggs {
		a := &aggs[i]
		row := FlowRow(a)
		if row.Samples != a.Est.N() || row.EstMeanNs != a.Est.Mean() ||
			row.EstStdNs != a.Est.Std() || row.TrueMeanNs != a.True.Mean() ||
			row.EstP50Ns != int64(a.Sketch.Quantile(0.5)) ||
			row.EstP99Ns != int64(a.Sketch.Quantile(0.99)) ||
			row.Packets != a.Packets || row.Bytes != a.Bytes {
			t.Fatalf("row %d diverges from aggregate: %+v", i, row)
		}
	}
}

// TestFlowLimitAndRows pins the /flows row cap: absent means every row, a
// number caps (and never over-runs) the table, anything else is an error.
func TestFlowLimitAndRows(t *testing.T) {
	aggs := buildSnapshot(t, 5)
	for _, c := range []struct {
		query string
		rows  int // -1: want an error
	}{
		{"", len(aggs)}, {"?limit=0", 0}, {"?limit=1", 1},
		{"?limit=1000000", len(aggs)},
		{"?limit=-1", -1}, {"?limit=abc", -1}, {"?limit=1.5", -1},
	} {
		limit, err := FlowLimit(httptest.NewRequest("GET", "/flows"+c.query, nil))
		if c.rows < 0 {
			if err == nil {
				t.Fatalf("%q accepted as limit %d", c.query, limit)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q rejected: %v", c.query, err)
		}
		body, err := AppendFlowRows(nil, aggs, limit)
		if err != nil {
			t.Fatal(err)
		}
		var rows []FlowJSON
		if err := json.Unmarshal(body, &rows); err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		if len(rows) != c.rows {
			t.Fatalf("%q rendered %d rows, want %d", c.query, len(rows), c.rows)
		}
		for i := range rows {
			if rows[i] != FlowRow(&aggs[i]) {
				t.Fatalf("%q row %d is not the table's row %d", c.query, i, i)
			}
		}
	}
}

// TestRollupRowsMatchesAggDerivation checks the /rollup renderer against a
// real evicting collector's rollup.
func TestRollupRowsMatchesAggDerivation(t *testing.T) {
	coll := collector.New(collector.Config{Shards: 1, MaxFlows: 4})
	rng := rand.New(rand.NewSource(17))
	smps := make([]collector.Sample, 4000)
	for i := range smps {
		smps[i] = collector.Sample{
			Key: packet.FlowKey{
				Src:     packet.Addr(rng.Uint32()),
				Dst:     packet.Addr(rng.Uint32()),
				SrcPort: uint16(1 + rng.Intn(1<<15)),
				DstPort: 443,
				Proto:   packet.ProtoTCP,
			},
			Est: time.Duration(rng.Int63n(int64(time.Second))),
		}
	}
	coll.Ingest(smps)
	roll := coll.RollupSnapshot()
	coll.Close()
	if roll.Stats.Evicted == 0 || len(roll.Classes) == 0 {
		t.Fatalf("collector did not evict: %+v", roll.Stats)
	}

	got := RollupRows(roll)
	if got.FlowsTracked != roll.Stats.Flows || got.FlowsEvicted != roll.Stats.Evicted ||
		got.FlowsExpired != roll.Stats.Expired {
		t.Fatalf("rollup accounting diverged: %+v vs %+v", got, roll.Stats)
	}
	if len(got.Classes) != len(roll.Classes) {
		t.Fatalf("%d class rows, want %d", len(got.Classes), len(roll.Classes))
	}
	for i := range got.Classes {
		a, row := &roll.Classes[i], got.Classes[i]
		if row.Src != a.Key.Src.String() || row.Samples != a.Est.N() ||
			row.EstP50Ns != int64(a.Sketch.Quantile(0.5)) ||
			row.EstP99Ns != int64(a.Sketch.Quantile(0.99)) {
			t.Fatalf("class row %d diverges: %+v vs %+v", i, row, a)
		}
	}
	if got.Router.Src != "" || got.Router.Samples != roll.Root.Est.N() {
		t.Fatalf("router row diverges: %+v", got.Router)
	}
}
