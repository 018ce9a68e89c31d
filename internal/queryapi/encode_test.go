package queryapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/memtest"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// referenceFlows is the /flows body as it was rendered before the append
// encoder existed, kept as its oracle: FlowRow rows through json.Encoder
// with SetIndent("", "  ").
func referenceFlows(t testing.TB, aggs []collector.FlowAgg, limit int) []byte {
	t.Helper()
	if limit < 0 || limit > len(aggs) {
		limit = len(aggs)
	}
	rows := make([]FlowJSON, limit)
	for i := range rows {
		rows[i] = FlowRow(&aggs[i])
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cornerFloats sit on both sides of encoding/json's two format switches
// (1e-6 and 1e21), at the e-09/e-10 exponent clean-up boundary, and at the
// ends of the float64 range.
var cornerFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 123456.789, 1e6, 1234567890123456789,
	1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, 1.5e-9, 1e-9, 1e-10, 2.5e-100, -3e-8,
	1e21, math.Nextafter(1e21, 0), 1e20, 9.999e20, 1.7e22, 1e100, -1e21,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310,
	math.MaxFloat64, -math.MaxFloat64,
}

// cornerTable is a table whose float columns walk cornerFloats (est mean,
// est deviation through its square as M2, true mean — offset so the three
// columns differ per row), alternating rows with and without NetFlow fields.
func cornerTable() []collector.FlowAgg {
	aggs := make([]collector.FlowAgg, len(cornerFloats))
	for i := range aggs {
		a := &aggs[i]
		a.Key = packet.FlowKey{Src: packet.Addr(i * 0x01010101), Dst: packet.Addr(^uint32(i)), SrcPort: uint16(i), DstPort: uint16(65535 - i), Proto: packet.Proto(i)}
		pick := func(off int) float64 { return cornerFloats[(i+off)%len(cornerFloats)] }
		std := math.Abs(pick(7))
		a.Est.SetState(stats.WelfordState{N: 1, Mean: pick(0), M2: std * std})
		if math.IsInf(std*std, 0) {
			a.Est.SetState(stats.WelfordState{N: 1, Mean: pick(0), M2: std}) // sqrt(MaxFloat64): still 'e' form
		}
		a.True.SetState(stats.WelfordState{N: 1, Mean: pick(13)})
		a.Sketch.Add(math.Abs(pick(3)))
		switch i % 4 {
		case 1:
			a.Packets, a.Bytes, a.First, a.Last = 3, 1500, simtime.Time(i), simtime.Time(1000+i)
		case 2:
			a.Packets, a.Bytes, a.Last = 1, 64, simtime.Time(i) // first_ns omitted alone
		case 3:
			a.Packets, a.Bytes, a.First = math.MaxUint64, math.MaxUint64, -simtime.Time(i) // last_ns omitted alone
		}
	}
	return aggs
}

// TestAppendFlowRowsMatchesEncodingJSON is the encoder's contract: for any
// table and any limit its bytes are encoding/json's indented rendering of
// the FlowRow rows. Tables come from a real collector over seeded random
// streams (rows with and without NetFlow records) and from cornerTable.
func TestAppendFlowRowsMatchesEncodingJSON(t *testing.T) {
	tables := [][]collector.FlowAgg{nil, {}, cornerTable()}
	for seed := int64(1); seed <= 25; seed++ {
		tables = append(tables, buildSnapshot(t, seed))
	}
	rng := rand.New(rand.NewSource(99))
	for ti, aggs := range tables {
		n := len(aggs)
		for _, limit := range []int{-1, 0, 1, n, n + 3, rng.Intn(n + 1)} {
			want := referenceFlows(t, aggs, limit)
			got, err := AppendFlowRows(nil, aggs, limit)
			if err != nil {
				t.Fatalf("table %d limit %d: %v", ti, limit, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("table %d (%d flows) limit %d: encoder diverges from encoding/json at byte %d:\n got %.200q\nwant %.200q",
					ti, n, limit, firstDiff(got, want), tail(got, firstDiff(got, want)), tail(want, firstDiff(got, want)))
			}
			// Appending must leave what dst already held alone.
			pre, _ := AppendFlowRows([]byte("prefix"), aggs, limit)
			if !bytes.Equal(pre, append([]byte("prefix"), want...)) {
				t.Fatalf("table %d limit %d: AppendFlowRows disturbed dst's prefix", ti, limit)
			}
		}
	}
	if got, _ := AppendFlowRows(nil, nil, -1); string(got) != "[]\n" {
		t.Fatalf("empty table renders %q, want %q", got, "[]\n")
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func tail(b []byte, from int) []byte { return b[max(0, from-40):] }

// TestAppendFloatJSONMatchesEncodingJSON checks the float rule alone against
// json.Marshal, on the corners and on random bit patterns of every exponent.
func TestAppendFloatJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := append([]float64(nil), cornerFloats...)
	for len(vals) < 20000 {
		if f := math.Float64frombits(rng.Uint64()); finite(f) {
			vals = append(vals, f)
		}
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloatJSON(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("%b: got %s, encoding/json %s", f, got, want)
		}
	}
}

// TestFlowRowMaxLen pins the bound AppendFlowRows sizes its body by, to the
// byte: two rows with every value at its widest — except the deviation,
// which a one-sample flow renders as "0" — take 2*(flowRowMaxLen-24) bytes
// plus the closing bracket.
func TestFlowRowMaxLen(t *testing.T) {
	widest := -math.Nextafter(1e-6, 1) // -0.0000010000000000000002, the longest 'f' form
	if n := len(appendFloatJSON(nil, widest)); n != 25 {
		t.Fatalf("widest float renders in %d bytes, the bound assumes 25", n)
	}
	a := collector.FlowAgg{
		Key:     packet.FlowKey{Src: 0xFFFFFFFF, Dst: 0xFFFFFFFF, SrcPort: 65535, DstPort: 65535, Proto: 255},
		Packets: math.MaxUint64, Bytes: math.MaxUint64, First: math.MinInt64, Last: math.MinInt64,
	}
	a.Est.SetState(stats.WelfordState{N: math.MinInt64, Mean: widest}) // n < 1: deviation 0
	a.True.SetState(stats.WelfordState{N: 1, Mean: widest})
	a.Sketch.SetState(stats.SketchState{Count: 1, Max: math.MinInt64}) // both quantiles fall through to Max
	rows, err := AppendFlowRows(nil, []collector.FlowAgg{a, a}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rows), 2*(flowRowMaxLen-24)+len("\n]\n"); got != want {
		t.Fatalf("two widest rows take %d bytes, flowRowMaxLen accounts for %d:\n%s", got, want, rows)
	}
}

// TestZeroAllocAppendFlowRows gates the encoder's garbage: rendering a table
// into a buffer with room allocates nothing, per row or per call; nor does
// rendering one in four parts, three of them on helper goroutines, into a
// FlowsBody that has held as many rows.
func TestZeroAllocAppendFlowRows(t *testing.T) {
	aggs := append(buildSnapshot(t, 5), cornerTable()...)
	buf := make([]byte, 0, len(aggs)*flowRowMaxLen+8)
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = AppendFlowRows(buf[:0], aggs, -1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendFlowRows allocates %v times per %d-row table", n, len(aggs))
	}

	for seed := int64(6); len(aggs) < 4*minPartRows; seed++ {
		aggs = append(aggs, buildSnapshot(t, seed)...)
	}
	var b FlowsBody
	if n := memtest.MallocsPerRun(4, 200, func() {
		if err := b.Render(aggs, -1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || len(b.parts) != 4 {
		t.Fatalf("Render allocates %v times per %d-row table in %d parts", n, len(aggs), len(b.parts))
	}
}

// TestNonFiniteIsA500 pins what a value JSON cannot carry turns into: a 500
// with the reason, from both writers, and never a committed 200 — and that a
// good body goes out with its Content-Length.
func TestNonFiniteIsA500(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			aggs := buildSnapshot(t, 5)
			a := &aggs[len(aggs)/2]
			switch field {
			case 0:
				a.Est.SetState(stats.WelfordState{N: 2, Mean: bad})
			case 1:
				a.Est.SetState(stats.WelfordState{N: 2, Mean: 1, M2: bad})
			case 2:
				a.True.SetState(stats.WelfordState{N: 2, Mean: bad})
			}
			if _, err := AppendFlowRows(nil, aggs, -1); err == nil {
				t.Fatalf("field %d = %v: AppendFlowRows rendered it", field, bad)
			}
			if _, err := AppendFlowRows(nil, aggs, len(aggs)/2); err != nil {
				t.Fatalf("field %d = %v: a limit that excludes the row still fails: %v", field, bad, err)
			}
			rec := httptest.NewRecorder()
			WriteFlows(rec, aggs, -1, nil)
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "non-finite") {
				t.Fatalf("field %d = %v: WriteFlows answered %d %q", field, bad, rec.Code, rec.Body.String())
			}
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, map[string]float64{"v": bad})
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
			t.Fatalf("WriteJSON(%v) answered %d %q", bad, rec.Code, rec.Body.String())
		}
	}

	aggs := buildSnapshot(t, 5)
	flows, health := httptest.NewRecorder(), httptest.NewRecorder()
	WriteFlows(flows, aggs, -1, nil)
	if flows.Code != http.StatusOK || !bytes.Equal(flows.Body.Bytes(), referenceFlows(t, aggs, -1)) {
		t.Fatalf("WriteFlows answered %d with a body that is not the reference", flows.Code)
	}
	WriteJSON(health, http.StatusServiceUnavailable, HealthJSON{Status: "stopped"})
	if health.Code != http.StatusServiceUnavailable {
		t.Fatalf("WriteJSON answered %d, want the 503 it was given", health.Code)
	}
	for _, rec := range []*httptest.ResponseRecorder{flows, health} {
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
}

// TestWriteFlowsMatchesAppendFlowRows pins the split render to the one-part
// encoder: at GOMAXPROCS 1, 2 and 4, for tables of no rows, one row, just
// under, at and over one and two part minimums and odd counts, and for every
// shape of limit, WriteFlows answers AppendFlowRows' bytes under their
// Content-Length, in as many parts as the rule gives; a non-finite value in
// any part is a 500 naming the first bad flow. One FlowsBody serves every
// response, so parts are regrown, shrunk and reused in turn.
func TestWriteFlowsMatchesAppendFlowRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	big := cornerTable()
	for seed := int64(1); len(big) < 5*minPartRows+1; seed++ {
		big = append(big, buildSnapshot(t, seed)...)
	}
	var b FlowsBody
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, minPartRows - 1, minPartRows, minPartRows + 1, 2*minPartRows - 1, 2 * minPartRows, 2*minPartRows + 1, 4*minPartRows + 3, 5*minPartRows + 1} {
			aggs := big[:n]
			for _, limit := range []int{-1, 0, 1, n / 2, n - 1, n, n + 1} {
				if limit < -1 {
					continue
				}
				want, err := AppendFlowRows(nil, aggs, limit)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				WriteFlows(rec, aggs, limit, &b)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("GOMAXPROCS %d, %d rows, limit %d: WriteFlows answered %d with %d bytes, AppendFlowRows %d (first difference at byte %d)",
						procs, n, limit, rec.Code, rec.Body.Len(), len(want), firstDiff(rec.Body.Bytes(), want))
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
					t.Fatalf("GOMAXPROCS %d, %d rows, limit %d: Content-Length %q for a %d-byte body", procs, n, limit, cl, len(want))
				}
				if parts, rows := len(b.parts), flowRows(n, limit); parts != max(1, min(procs, rows/minPartRows)) {
					t.Fatalf("GOMAXPROCS %d: %d rows rendered in %d parts", procs, rows, parts)
				}
			}
		}
	}

	// At GOMAXPROCS 4 a value JSON cannot carry is found in whichever part
	// holds it, and the 500 names the first such flow in key order however
	// the parts finish: a bad row alone in the last part, two there, and
	// one in a middle part beside one in the last.
	n := 4*minPartRows + 3
	for _, bad := range [][]int{{n - 1}, {n - 2, n - 1}, {n / 2, n - 1}} {
		table := slices.Clone(big[:n])
		for _, i := range bad {
			table[i].Est.SetState(stats.WelfordState{N: 2, Mean: math.NaN()})
		}
		rec := httptest.NewRecorder()
		WriteFlows(rec, table, -1, &b)
		if first := fmt.Sprint(table[bad[0]].Key); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "flow "+first+" has") {
			t.Fatalf("bad rows %v: WriteFlows answered %d %q, want a 500 naming flow %s", bad, rec.Code, rec.Body.String(), first)
		}
	}
}

// TestSplitRenderNamesFirstBadFlow: a value JSON cannot carry is found in
// whichever part holds it, and the 500 names the first such flow in key
// order however the parts finish — a bad row alone in the last part, and
// bad rows in a middle part and the last one.
func TestSplitRenderNamesFirstBadFlow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var aggs []collector.FlowAgg
	for seed := int64(1); len(aggs) < 4*minPartRows+3; seed++ {
		aggs = append(aggs, buildSnapshot(t, seed)...)
	}
	aggs = aggs[:4*minPartRows+3]
	n := len(aggs)
	for _, bad := range [][]int{{n - 1}, {n - 2, n - 1}, {n / 2, n - 1}} {
		table := slices.Clone(aggs)
		for _, i := range bad {
			table[i].Est.SetState(stats.WelfordState{N: 2, Mean: math.NaN()})
		}
		rec := httptest.NewRecorder()
		WriteFlows(rec, table, -1, nil)
		if first := fmt.Sprint(table[bad[0]].Key); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "flow "+first+" has") {
			t.Fatalf("bad rows %v: WriteFlows answered %d %q, want a 500 naming flow %s", bad, rec.Code, rec.Body.String(), first)
		}
	}
}

// BenchmarkAppendFlowRows renders a read_path-sized table (2 266 rows) into
// a presized buffer.
func BenchmarkAppendFlowRows(b *testing.B) {
	var aggs []collector.FlowAgg
	for seed := int64(1); len(aggs) < 2266; seed++ {
		aggs = append(aggs, buildSnapshot(b, seed)...)
	}
	aggs = aggs[:2266]
	buf := make([]byte, 0, len(aggs)*flowRowMaxLen+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendFlowRows(buf[:0], aggs, -1)
	}
	b.SetBytes(int64(len(buf)))
}
