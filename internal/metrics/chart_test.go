package metrics

import (
	"strings"
	"testing"
)

func lineSeries(label string, pts ...[2]float64) *Series {
	s := &Series{Label: label}
	for _, p := range pts {
		s.Add(p[0], p[1])
	}
	return s
}

func TestPlotBasicStructure(t *testing.T) {
	s1 := lineSeries("up", [2]float64{0, 0}, [2]float64{10, 1})
	s2 := lineSeries("down", [2]float64{0, 1}, [2]float64{10, 0})
	var sb strings.Builder
	err := Plot(&sb, "test chart", []*Series{s1, s2}, PlotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Errorf("missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 16 rows + axis + x labels + legend.
	if len(lines) != 20 {
		t.Fatalf("got %d lines, want 20:\n%s", len(lines), out)
	}
	// Both marks appear.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("marks missing")
	}
	// Axis labels include min and max y.
	if !strings.Contains(out, "1") || !strings.Contains(out, "0") {
		t.Error("y labels missing")
	}
}

func TestPlotInterpolatesBetweenPoints(t *testing.T) {
	// A line from (0,0) to (100,1) with only two points must still paint
	// every column.
	s := lineSeries("line", [2]float64{0, 0}, [2]float64{100, 1})
	var sb strings.Builder
	if err := Plot(&sb, "", []*Series{s}, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(sb.String(), "\n")
	stars := 0
	for _, r := range rows {
		stars += strings.Count(r, "*")
	}
	if stars < plotWidth {
		t.Fatalf("only %d marks for a %d-column line", stars, plotWidth)
	}
}

func TestPlotDegenerateInputs(t *testing.T) {
	if err := Plot(&strings.Builder{}, "", nil, PlotOptions{}); err == nil {
		t.Error("empty series list plotted")
	}
	empty := &Series{Label: "e"}
	if err := Plot(&strings.Builder{}, "", []*Series{empty}, PlotOptions{}); err == nil {
		t.Error("empty series plotted")
	}
	// Single point, flat series: must not divide by zero.
	single := lineSeries("pt", [2]float64{5, 3})
	var sb strings.Builder
	if err := Plot(&sb, "", []*Series{single}, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Error("single point not drawn")
	}
}

func TestPlotFixedYRangeClamps(t *testing.T) {
	s := lineSeries("spike", [2]float64{0, 0}, [2]float64{1, 100})
	var sb strings.Builder
	err := Plot(&sb, "", []*Series{s}, PlotOptions{YMin: 0, YMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The off-scale value clamps to the top row rather than panicking.
	top := strings.Split(sb.String(), "\n")[0]
	if !strings.Contains(top, "*") {
		t.Errorf("clamped point missing from top row: %q", top)
	}
}

func TestPlotSymbolCyclingPastMarkSet(t *testing.T) {
	// Eight overlaid series exceed the six plot symbols: the seventh and
	// eighth wrap around to the first two marks.
	var series []*Series
	for i := 0; i < 8; i++ {
		series = append(series, lineSeries(
			string(rune('a'+i)),
			[2]float64{0, float64(i)},
			[2]float64{10, float64(i) + 1},
		))
	}
	var sb strings.Builder
	if err := Plot(&sb, "cycling", series, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Every series appears in the legend with its (possibly reused) mark.
	for i, want := range []string{"* a", "o b", "+ c", "x d", "# e", "@ f", "* g", "o h"} {
		if !strings.Contains(out, want) {
			t.Errorf("legend entry %d missing %q:\n%s", i, want, out)
		}
	}
}

func TestPlotSinglePointSeriesDegenerateRanges(t *testing.T) {
	// All series share one x and one y: both axes have zero span and must
	// be widened rather than divided by.
	a := lineSeries("a", [2]float64{2, 7})
	b := lineSeries("b", [2]float64{2, 7})
	var sb strings.Builder
	if err := Plot(&sb, "flat", []*Series{a, b}, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") && !strings.Contains(out, "o") {
		t.Fatalf("no marks drawn:\n%s", out)
	}
	for _, r := range out {
		if r == 'N' { // NaN leaking into axis labels
			t.Fatalf("NaN in output:\n%s", out)
		}
	}
	// A single-point series overlaid on a long line keeps its own mark.
	long := lineSeries("long", [2]float64{0, 0}, [2]float64{100, 10})
	pt := lineSeries("pt", [2]float64{50, 5})
	sb.Reset()
	if err := Plot(&sb, "", []*Series{long, pt}, PlotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "o pt") {
		t.Fatalf("single-point series missing from legend:\n%s", sb.String())
	}
}
