package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"milan/internal/workload"
)

// WriteFigure renders a single-parameter figure as the two tables the paper
// plots: system utilization (left graph) and throughput (right graph) for
// the tunable, shape-1 and shape-2 task systems.
func WriteFigure(w io.Writer, fig Figure, cfg Config) error {
	fmt.Fprintf(w, "Figure %s: sweep of %s (x=%d t=%g alpha=%g laxity=%g M=%d mean-gap=%g jobs=%d seed=%d)\n",
		fig.ID, fig.ParamName, cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity,
		cfg.Procs, cfg.MeanInterarrival, cfg.Jobs, cfg.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tutil(tunable)\tutil(shape1)\tutil(shape2)\tthr(tunable)\tthr(shape1)\tthr(shape2)\tthr-gain\n", fig.ParamName)
	for _, pt := range fig.Points {
		t := pt.Results[workload.Tunable]
		s1 := pt.Results[workload.Shape1]
		s2 := pt.Results[workload.Shape2]
		fmt.Fprintf(tw, "%g\t%.3f\t%.3f\t%.3f\t%d\t%d\t%d\t%+d\n",
			pt.Param, t.Utilization, s1.Utilization, s2.Utilization,
			t.throughput(), s1.throughput(), s2.throughput(), pt.throughputGain())
	}
	return tw.Flush()
}

// WriteGrid renders a Figure-6 benefit surface: one row per arrival
// interval, one column per laxity, entries are tunable-minus-shape
// throughput.
func WriteGrid(w io.Writer, g Grid, cfg Config) error {
	model := "non-malleable"
	if g.Malleable {
		model = "malleable"
	}
	fmt.Fprintf(w, "Figure %s: throughput benefit of tunability, %s model (x=%d t=%g alpha=%g M=%d jobs=%d seed=%d)\n",
		g.ID, model, cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Procs, cfg.Jobs, cfg.Seed)
	surfaces := []struct {
		name string
		grid [][]int
	}{
		{"benefit over shape 1", g.VsShape1},
		{"benefit over shape 2", g.VsShape2},
	}
	for _, s := range surfaces {
		name, grid := s.name, s.grid
		fmt.Fprintf(w, "\n%s:\n", name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "interval\\laxity")
		for _, lax := range g.Laxities {
			fmt.Fprintf(tw, "\t%g", lax)
		}
		fmt.Fprintln(tw)
		for i, iv := range g.Intervals {
			fmt.Fprintf(tw, "%g", iv)
			for j := range g.Laxities {
				fmt.Fprintf(tw, "\t%+d", grid[i][j])
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nmax benefit vs shape1: %d, vs shape2: %d; mean vs shape1: %.1f, vs shape2: %.1f\n",
		maxBenefit(g.VsShape1), maxBenefit(g.VsShape2), meanBenefit(g.VsShape1), meanBenefit(g.VsShape2))
	return nil
}
