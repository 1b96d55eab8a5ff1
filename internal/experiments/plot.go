package experiments

import (
	"fmt"
	"io"

	"milan/internal/metrics"
	"milan/internal/workload"
)

// figureSeries converts a figure sweep into plottable series: one
// utilization and one throughput series per task system.
func figureSeries(fig Figure) (util, thr []*metrics.Series) {
	for _, sys := range workload.Systems {
		u := &metrics.Series{Label: sys.String()}
		th := &metrics.Series{Label: sys.String()}
		for _, pt := range fig.Points {
			r := pt.Results[sys]
			u.Add(pt.Param, r.Utilization)
			th.Add(pt.Param, float64(r.throughput()))
		}
		util = append(util, u)
		thr = append(thr, th)
	}
	return util, thr
}

// PlotFigure renders the figure's two graphs (utilization left, throughput
// right in the paper; stacked here) as ASCII charts.
func PlotFigure(w io.Writer, fig Figure) error {
	util, thr := figureSeries(fig)
	title := fmt.Sprintf("Figure %s: utilization vs %s", fig.ID, fig.ParamName)
	if err := metrics.Plot(w, title, util, metrics.PlotOptions{YMin: 0, YMax: 1}); err != nil {
		return err
	}
	fmt.Fprintln(w)
	title = fmt.Sprintf("Figure %s: throughput vs %s", fig.ID, fig.ParamName)
	return metrics.Plot(w, title, thr, metrics.PlotOptions{})
}
