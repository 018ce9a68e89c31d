package stats

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is one run's metrics in table form: labelled rows × named float64
// columns. It is the single shape every figure, ablation and scenario
// report takes, both to be printed for one run (Render) and to be folded
// across seeds (FoldTables).
//
// A NaN cell means "this row does not produce the metric" (LDA has no
// per-flow error; a series whose CDF came out empty has no quantiles): it
// is left out of that cell's across-seed statistic rather than poisoning
// its mean. A yes/no outcome is a 0/1 column, so its across-seed mean is
// the fraction of seeds it held on.
type Table struct {
	// Title heads the rendered table.
	Title string
	// RowHeader heads the label column ("estimator", "series", ...).
	RowHeader string
	// Columns names the metrics; every row carries one cell per column.
	Columns []string
	Rows    []TableRow
	// Notes are rendered under the table.
	Notes []string
}

// TableRow is one labelled row of a Table.
type TableRow struct {
	Label string
	Cells []float64
}

// TableCI is a Table folded across N independent runs: every cell is the
// mean ± 95% CI of that cell over the runs that produced it.
type TableCI struct {
	Title     string
	RowHeader string
	Columns   []string
	Rows      []TableCIRow
	Notes     []string
	// N is the number of tables folded. A cell's own N can be lower: runs
	// whose cell was NaN do not count toward it.
	N int
}

// TableCIRow is one labelled row of a TableCI.
type TableCIRow struct {
	Label string
	Cells []MetricCI
}

// FoldTables folds per-run tables of identical shape into one across-run
// table. Every run of a sweep executes the same configuration, so rows and
// columns are matched by index and their labels checked: a table whose
// shape, column names or row labels differ from the first's is an error
// naming the first divergence. Title and row header are the first table's;
// a note survives only if every table carries it verbatim, which drops
// per-run remarks (achieved utilizations) and keeps the seed-invariant ones.
func FoldTables(tables []Table) (TableCI, error) {
	if len(tables) == 0 {
		return TableCI{}, nil
	}
	ref := tables[0]
	out := TableCI{Title: ref.Title, RowHeader: ref.RowHeader, Columns: ref.Columns, N: len(tables)}
	for k, t := range tables {
		if !slices.Equal(t.Columns, ref.Columns) {
			return TableCI{}, fmt.Errorf("stats: table %d of %q has columns %q, table 0 has %q", k, ref.Title, t.Columns, ref.Columns)
		}
		if len(t.Rows) != len(ref.Rows) {
			return TableCI{}, fmt.Errorf("stats: table %d of %q has %d rows, table 0 has %d", k, ref.Title, len(t.Rows), len(ref.Rows))
		}
		for i, r := range t.Rows {
			if r.Label != ref.Rows[i].Label {
				return TableCI{}, fmt.Errorf("stats: table %d of %q labels row %d %q, table 0 labels it %q", k, ref.Title, i, r.Label, ref.Rows[i].Label)
			}
			if len(r.Cells) != len(ref.Columns) {
				return TableCI{}, fmt.Errorf("stats: table %d of %q row %d (%q) has %d cells for %d columns", k, ref.Title, i, r.Label, len(r.Cells), len(ref.Columns))
			}
		}
	}
	for _, note := range ref.Notes {
		missing := slices.ContainsFunc(tables, func(t Table) bool { return !slices.Contains(t.Notes, note) })
		if !missing {
			out.Notes = append(out.Notes, note)
		}
	}
	samples := make([]float64, 0, len(tables))
	for i, r := range ref.Rows {
		row := TableCIRow{Label: r.Label, Cells: make([]MetricCI, len(ref.Columns))}
		for j := range ref.Columns {
			samples = samples[:0]
			for _, t := range tables {
				if x := t.Rows[i].Cells[j]; !math.IsNaN(x) {
					samples = append(samples, x)
				}
			}
			row.Cells[j] = MetricOf(samples)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Cell returns the across-run statistic at (row label, column name).
func (t TableCI) Cell(row, col string) (MetricCI, bool) {
	j := slices.Index(t.Columns, col)
	if j < 0 {
		return MetricCI{}, false
	}
	for _, r := range t.Rows {
		if r.Label == row {
			return r.Cells[j], true
		}
	}
	return MetricCI{}, false
}

// Render draws a single run's table: its N = 1 fold, drawn by
// TableCI.Render. A table whose rows do not match its columns is a bug in
// the code that built it, and panics.
func (t Table) Render() string {
	ci, err := FoldTables([]Table{t})
	if err != nil {
		panic(err)
	}
	return ci.Render()
}

// Render draws the table: every cell as mean ±CI, "n/a" when no run
// produced the cell, and a cell fewer runs produced than were folded marked
// with its effective n. A one-run fold prints plain values (see
// singleValue).
func (t TableCI) Render() string {
	grid := make([][]string, 0, len(t.Rows)+1)
	grid = append(grid, append([]string{t.RowHeader}, t.Columns...))
	for _, r := range t.Rows {
		line := []string{r.Label}
		for _, c := range r.Cells {
			s := c.String()
			if t.N == 1 && c.N == 1 {
				s = singleValue(c.Mean)
			}
			if c.N > 0 && c.N < t.N {
				s += fmt.Sprintf(" (n=%d)", c.N)
			}
			line = append(line, s)
		}
		grid = append(grid, line)
	}
	width := make([]int, len(t.Columns)+1)
	for _, line := range grid {
		for j, s := range line {
			// Runes, as fmt pads: labels and cells carry µ and ±.
			width[j] = max(width[j], utf8.RuneCountInString(s))
		}
	}
	var b strings.Builder
	if t.N > 1 {
		fmt.Fprintf(&b, "== %s (mean ±95%% CI over %d seeds) ==\n", t.Title, t.N)
	} else {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for _, line := range grid {
		var l strings.Builder
		for j, s := range line {
			fmt.Fprintf(&l, "%-*s", width[j]+2, s)
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// singleValue formats one run's cell: an integral value (a count, a 0/1
// verdict) as an integer, a nonzero value below 1e-3 (a loss-rate delta)
// with three significant digits, and anything else as MetricCI does.
func singleValue(x float64) string {
	switch abs := math.Abs(x); {
	case x == 0:
		return "0" // not "-0"
	case x == math.Trunc(x) && abs < 1e15:
		return strconv.FormatFloat(x, 'f', 0, 64)
	case abs < 1e-3:
		return strconv.FormatFloat(x, 'g', 3, 64)
	}
	return fmt.Sprintf("%.4f", x)
}
