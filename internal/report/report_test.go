package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tbl := &Table{
		Title:   "title",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("short", 1.0)
	tbl.AddRow("a-much-longer-name", 123.456)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("want 5 lines, got %d: %q", len(lines), out)
	}
}

func TestTableRenderRows(t *testing.T) {
	tbl := &Table{Headers: []string{"a"}}
	tbl.AddRow(3.14159)
	tbl.AddRow("x")
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "3.142") {
		t.Errorf("float not rendered with %%.4g: %q", sb.String())
	}
}

func TestSeriesAddValidates(t *testing.T) {
	s := &Series{Title: "t", XLabel: "x", Names: []string{"a", "b"}}
	s.Add(1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	s.Add(2, 1)
}

func TestSeriesRender(t *testing.T) {
	s := &Series{Title: "curve", XLabel: "r", Names: []string{"err"}}
	s.Add(0.5, 0.25)
	s.Add(1.0, 0.0)
	var sb strings.Builder
	s.Render(&sb)
	out := sb.String()
	for _, want := range []string{"curve", "r", "err", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q: %q", want, out)
		}
	}
}

func TestBarGroupRender(t *testing.T) {
	bg := &BarGroup{
		Title:  "bars",
		Groups: []string{"g1", "g2"},
		Names:  []string{"a", "b"},
		Values: [][]float64{{1, 2}, {3, 4}},
	}
	var sb strings.Builder
	bg.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "g1") || !strings.Contains(out, "####") {
		t.Errorf("bar render incomplete: %q", out)
	}
}

func TestBarGroupAllZeros(t *testing.T) {
	bg := &BarGroup{Groups: []string{"g"}, Names: []string{"a"}, Values: [][]float64{{0}}}
	var sb strings.Builder
	bg.Render(&sb) // must not divide by zero
	if sb.Len() == 0 {
		t.Error("nothing rendered")
	}
}

// A negative or NaN value draws no bar instead of panicking in
// strings.Repeat; the positive value beside it still gets the full 40.
func TestBarGroupRenderOutOfRangeValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
	}{
		{"negative", []float64{1, -0.5}},
		{"NaN", []float64{1, math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bg := &BarGroup{Groups: []string{"g"}, Names: []string{"a", "b"}, Values: [][]float64{tc.vals}}
			var sb strings.Builder
			bg.Render(&sb)
			lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
			if len(lines) < 2 {
				t.Fatalf("too few lines:\n%s", sb.String())
			}
			if got := strings.Count(lines[len(lines)-2], "#"); got != 40 {
				t.Errorf("bar for 1 has %d marks, want 40", got)
			}
			if strings.Contains(lines[len(lines)-1], "#") {
				t.Errorf("bar drawn for %v: %q", tc.vals[1], lines[len(lines)-1])
			}
		})
	}
}
