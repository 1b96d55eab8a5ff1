package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// seriesMarks cycles through plot symbols for overlaid series.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@'}

// The plot area Plot draws: columns and rows.
const plotWidth, plotHeight = 64, 16

// PlotOptions configures Plot.
type PlotOptions struct {
	YMin float64
	YMax float64 // YMax <= YMin means autoscale
}

// Plot renders the series as an ASCII chart, one symbol per series, with a
// legend — the terminal rendition of the paper's figures.  All series
// share the x axis (their own x values; columns are interpolated).
func Plot(w io.Writer, title string, series []*Series, opts PlotOptions) error {
	if len(series) == 0 {
		return fmt.Errorf("metrics: nothing to plot")
	}
	width, height := plotWidth, plotHeight
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.X) == 0 {
			return fmt.Errorf("metrics: series %q is empty", s.Label)
		}
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if opts.YMax > opts.YMin {
		ymin, ymax = opts.YMin, opts.YMax
	}
	if ymax-ymin < 1e-12 {
		ymax = ymin + 1
	}
	if xmax-xmin < 1e-12 {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	row := func(y float64) int {
		r := int(math.Round((ymax - y) / (ymax - ymin) * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}

	for si, s := range series {
		mark := seriesMarks[si%len(seriesMarks)]
		// Linear interpolation between consecutive points so the plot
		// reads as a line, not scattered dots.
		for i := 0; i+1 < len(s.X); i++ {
			c0, c1 := col(s.X[i]), col(s.X[i+1])
			if c1 < c0 {
				c0, c1 = c1, c0
			}
			for c := c0; c <= c1; c++ {
				var frac float64
				if c1 > c0 {
					frac = float64(c-c0) / float64(c1-c0)
				}
				y := s.Y[i] + (s.Y[i+1]-s.Y[i])*frac
				grid[row(y)][c] = mark
			}
		}
		if len(s.X) == 1 {
			grid[row(s.Y[0])][col(s.X[0])] = mark
		}
	}

	if title != "" {
		fmt.Fprintln(w, title)
	}
	for r, line := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%9.3g ", ymax)
		case height - 1:
			label = fmt.Sprintf("%9.3g ", ymin)
		case (height - 1) / 2:
			label = fmt.Sprintf("%9.3g ", (ymax+ymin)/2)
		}
		fmt.Fprintf(w, "%s|%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%s+%s+\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(w, "%s%-*.4g%*.4g\n", strings.Repeat(" ", 11), width/2, xmin, width-width/2, xmax)
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesMarks[si%len(seriesMarks)], s.Label))
	}
	fmt.Fprintf(w, "%s%s\n", strings.Repeat(" ", 11), strings.Join(legend, "   "))
	return nil
}
