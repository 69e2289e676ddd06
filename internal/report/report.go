// Package report renders the evaluation artefacts — tables, (x,y) series
// and bar groups — as aligned ASCII, so every table and figure of the
// thesis can be regenerated as text by the cmd/synts tool.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table holds a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			wd := 0
			if i < len(widths) {
				wd = widths[i]
			}
			parts[i] = pad(c, wd)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a titled multi-column numeric series keyed on an x value —
// the textual form of a line plot.
type Series struct {
	Title  string
	XLabel string
	Names  []string // one per column
	X      []float64
	Y      [][]float64 // Y[i][j] = column j at X[i]
}

// Add appends one x row; ys must match Names.
func (s *Series) Add(x float64, ys ...float64) {
	if len(ys) != len(s.Names) {
		panic(fmt.Sprintf("report: series %q: %d values for %d columns", s.Title, len(ys), len(s.Names)))
	}
	s.X = append(s.X, x)
	s.Y = append(s.Y, append([]float64(nil), ys...))
}

// table converts the series to tabular form.
func (s *Series) table() Table {
	t := Table{Title: s.Title, Headers: append([]string{s.XLabel}, s.Names...)}
	for i, x := range s.X {
		cells := make([]interface{}, 0, len(s.Names)+1)
		cells = append(cells, x)
		for _, y := range s.Y[i] {
			cells = append(cells, y)
		}
		t.AddRow(cells...)
	}
	return t
}

// Render writes the series as a table of x plus columns.
func (s *Series) Render(w io.Writer) {
	t := s.table()
	t.Render(w)
}

// BarGroup renders grouped bars (e.g. normalized EDP per benchmark per
// approach) as a table plus a crude ASCII bar for the first column.
type BarGroup struct {
	Title  string
	Groups []string // row labels (benchmarks)
	Names  []string // bar names within a group (approaches)
	Values [][]float64
}

// Render writes the group values and scaled bars.
func (b *BarGroup) Render(w io.Writer) {
	t := Table{Title: b.Title, Headers: append([]string{"group"}, b.Names...)}
	for i, g := range b.Groups {
		cells := []interface{}{g}
		for _, v := range b.Values[i] {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	t.Render(w)
	// Scale bars to the global maximum.
	max := 0.0
	for _, row := range b.Values {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		return
	}
	for i, g := range b.Groups {
		for j, v := range b.Values[i] {
			n := 0
			if x := v / max * 40; x > 0 { // a negative or NaN value draws no bar
				n = int(min(x, 40))
			}
			fmt.Fprintf(w, "  %-12s %-14s %s %.3f\n", g, b.Names[j], strings.Repeat("#", n), v)
		}
	}
}
