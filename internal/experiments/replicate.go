package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"milan/internal/metrics"
	"milan/internal/workload"
)

// replicated aggregates a run's headline metrics over independent seeds:
// the evaluation-hygiene layer the paper's single-seed graphs lack.
type replicated struct {
	System      workload.System
	Replicas    int
	Throughput  metrics.Welford
	Utilization metrics.Welford
}

// runReplicated runs the configuration `replicas` times with seeds
// cfg.Seed, cfg.Seed+1, ... and aggregates throughput and utilization.
func runReplicated(cfg Config, sys workload.System, replicas int) (replicated, error) {
	if replicas < 1 {
		return replicated{}, fmt.Errorf("experiments: replicas = %d", replicas)
	}
	out := replicated{System: sys, Replicas: replicas}
	for r := 0; r < replicas; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		res, err := Run(c, sys)
		if err != nil {
			return replicated{}, err
		}
		out.Throughput.Add(float64(res.throughput()))
		out.Utilization.Add(res.Utilization)
	}
	return out, nil
}

// WriteReplicated renders mean ± 95% CI for all three systems at one
// operating point.
func WriteReplicated(w io.Writer, cfg Config, replicas int) error {
	fmt.Fprintf(w, "Replicated point (%d seeds from %d): x=%d t=%g alpha=%g laxity=%g M=%d interval=%g jobs=%d\n",
		replicas, cfg.Seed, cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity,
		cfg.Procs, cfg.MeanInterarrival, cfg.Jobs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tthroughput (mean ± 95% CI)\tutilization (mean ± 95% CI)")
	for _, sys := range workload.Systems {
		rep, err := runReplicated(cfg, sys, replicas)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.0f ± %.0f\t%.3f ± %.3f\n",
			sys, rep.Throughput.Mean(), rep.Throughput.CI95(),
			rep.Utilization.Mean(), rep.Utilization.CI95())
	}
	return tw.Flush()
}
