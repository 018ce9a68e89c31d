package stats

import (
	"math"
	"strings"
	"testing"
)

// table builds a two-column test table from (label, a, b) rows.
func table(rows ...TableRow) Table {
	return Table{Title: "t", RowHeader: "row", Columns: []string{"a", "b"}, Rows: rows}
}

func row(label string, cells ...float64) TableRow { return TableRow{Label: label, Cells: cells} }

func TestFoldTables(t *testing.T) {
	nan := math.NaN()
	three := []Table{
		table(row("x", 1, nan), row("y", 10, nan)),
		table(row("x", 2, 5), row("y", 20, nan)),
		table(row("x", 3, nan), row("y", 30, nan)),
	}
	ci, err := FoldTables(three)
	if err != nil {
		t.Fatal(err)
	}
	if ci.N != 3 || len(ci.Rows) != 2 {
		t.Fatalf("folded N=%d rows=%d", ci.N, len(ci.Rows))
	}
	for _, tc := range []struct {
		row, col string
		want     MetricCI
	}{
		{"x", "a", MetricOf([]float64{1, 2, 3})},
		{"y", "a", MetricOf([]float64{10, 20, 30})},
		{"x", "b", MetricOf([]float64{5})}, // NaN cells excluded: effective n = 1
		{"y", "b", MetricCI{}},             // never produced: N = 0
	} {
		got, ok := ci.Cell(tc.row, tc.col)
		if !ok || got != tc.want {
			t.Errorf("Cell(%s, %s) = %+v, %v; want %+v", tc.row, tc.col, got, ok, tc.want)
		}
	}
	if _, ok := ci.Cell("z", "a"); ok {
		t.Error("Cell found a row that does not exist")
	}
	if _, ok := ci.Cell("x", "c"); ok {
		t.Error("Cell found a column that does not exist")
	}

	out := ci.Render()
	for _, want := range []string{
		"== t (mean ±95% CI over 3 seeds) ==",
		"2.0000 ±", // a full cell: mean ± CI, unmarked
		"5.0000 (n=1)",
		"n/a",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "n/a (n=") || strings.Contains(out, "(n=3)") {
		t.Errorf("render marks a cell that needs no effective-n mark:\n%s", out)
	}
}

// TestFoldTablesSingle: one table is the N = 1 fold and renders plain
// values under a plain header.
func TestFoldTablesSingle(t *testing.T) {
	ci, err := FoldTables([]Table{table(row("x", 1.5, math.NaN()))})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := ci.Cell("x", "a"); ci.N != 1 || m.N != 1 || m.Mean != 1.5 || m.CI95 != 0 {
		t.Fatalf("single-table fold: N=%d cell=%+v", ci.N, m)
	}
	out := ci.Render()
	if !strings.HasPrefix(out, "== t ==\n") || !strings.Contains(out, "1.5000") || !strings.Contains(out, "n/a") {
		t.Fatalf("single-table render:\n%s", out)
	}
	if strings.Contains(out, "±") || strings.Contains(out, "(n=") {
		t.Fatalf("single-table render claims a CI or marks an effective n:\n%s", out)
	}
}

// TestTableRender: a single run's table is its N = 1 fold, drawn by the one
// renderer. Integral cells print as integers, nonzero cells below 1e-3 keep
// three significant digits, a NaN cell prints n/a (never NaN, never -0), and
// every column starts at one offset however long the labels are.
func TestTableRender(t *testing.T) {
	tbl := table(
		row("flows", 9322, 0.5),
		row("loss delta", 4.2e-5, -0.000609),
		row("zero", math.Copysign(0, -1), math.NaN()),
		row("sw2 (sw1-egress->bottleneck)", 1.25, -3),
	)
	ci, err := FoldTables([]Table{tbl})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	if out != ci.Render() {
		t.Fatalf("Table.Render differs from its N = 1 fold:\n%s\n%s", out, ci.Render())
	}
	want := "== t ==\n" +
		"row                           a        b\n" +
		"flows                         9322     0.5000\n" +
		"loss delta                    4.2e-05  -0.000609\n" +
		"zero                          0        n/a\n" +
		"sw2 (sw1-egress->bottleneck)  1.2500   -3\n"
	if out != want {
		t.Fatalf("render:\n%s\nwant:\n%s", out, want)
	}
}

func TestFoldTablesEmpty(t *testing.T) {
	if ci, err := FoldTables(nil); err != nil || ci.N != 0 || len(ci.Rows) != 0 {
		t.Fatalf("FoldTables(nil) = %+v, %v", ci, err)
	}
	// Runs that all produced the empty table (a report the spec did not
	// ask for) fold to an empty table that still knows its N.
	if ci, err := FoldTables(make([]Table, 4)); err != nil || ci.N != 4 || len(ci.Rows) != 0 {
		t.Fatalf("FoldTables(4 empty) = %+v, %v", ci, err)
	}
}

// TestFoldTablesDivergence: tables that do not line up are an error naming
// the first divergence, not a silently misaligned fold.
func TestFoldTablesDivergence(t *testing.T) {
	ref := table(row("x", 1, 2), row("y", 3, 4))
	otherCols := table(row("x", 1, 2), row("y", 3, 4))
	otherCols.Columns = []string{"a", "c"}
	for _, tc := range []struct {
		name  string
		other Table
		want  []string // substrings of the error
	}{
		{"row label", table(row("x", 1, 2), row("w", 3, 4)), []string{"table 1", "row 1", `"w"`, `"y"`}},
		{"first of two bad labels", table(row("v", 1, 2), row("w", 3, 4)), []string{"row 0", `"v"`, `"x"`}},
		{"row count", table(row("x", 1, 2)), []string{"table 1", "1 rows", "2"}},
		{"column names", otherCols, []string{"table 1", "columns", `"c"`}},
		{"cell count", table(row("x", 1, 2), row("y", 3)), []string{"row 1", `"y"`, "1 cells", "2 columns"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FoldTables([]Table{ref, tc.other})
			if err == nil {
				t.Fatal("divergent tables folded")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestFoldTablesNotes: only the notes every run carries survive the fold.
func TestFoldTablesNotes(t *testing.T) {
	a := table(row("x", 1, 2))
	a.Notes = []string{"paper shape: holds", "achieved utils: 93%"}
	b := table(row("x", 3, 4))
	b.Notes = []string{"paper shape: holds", "achieved utils: 91%"}
	ci, err := FoldTables([]Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Notes) != 1 || ci.Notes[0] != "paper shape: holds" {
		t.Fatalf("notes = %q, want only the seed-invariant one", ci.Notes)
	}
	if !strings.Contains(ci.Render(), "note: paper shape: holds\n") {
		t.Fatalf("render omits the note:\n%s", ci.Render())
	}
}
