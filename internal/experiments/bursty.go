package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"milan/internal/workload"
)

// BurstyComparison is the EXT-A extension: the same offered load delivered
// as a Poisson stream versus a bursty (Markov-modulated) stream.  Live
// media workloads arrive in bursts; the comparison shows how much of the
// tunability benefit survives — or grows — when contention is episodic
// rather than smooth.
type BurstyComparison struct {
	Process string
	Results map[workload.System]RunResult
}

// RunBursty runs all three task systems under Poisson and bursty arrivals
// with the same mean gap.  The bursty process spends equal expected counts
// in busy and idle phases with gaps at 1/4 and 7/4 of the mean, keeping
// the long-run mean gap equal to cfg.MeanInterarrival.
func RunBursty(cfg Config) ([]BurstyComparison, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mk := []struct {
		name     string
		arrivals func() workload.Arrivals
	}{
		{"poisson", cfg.poisson},
		{"bursty", func() workload.Arrivals {
			return workload.NewBursty(cfg.MeanInterarrival/4, cfg.MeanInterarrival*7/4, 20, cfg.Seed)
		}},
	}
	var out []BurstyComparison
	for _, m := range mk {
		cmpr := BurstyComparison{Process: m.name, Results: make(map[workload.System]RunResult, 3)}
		for _, sys := range workload.Systems {
			r, err := run(cfg, sys, m.arrivals())
			if err != nil {
				return nil, fmt.Errorf("experiments: bursty %s/%s: %w", m.name, sys, err)
			}
			cmpr.Results[sys] = r
		}
		out = append(out, cmpr)
	}
	return out, nil
}

// gain returns tunable throughput minus the best fixed shape's.
func (b BurstyComparison) gain() int {
	t := b.Results[workload.Tunable].throughput()
	best := b.Results[workload.Shape1].throughput()
	if s2 := b.Results[workload.Shape2].throughput(); s2 > best {
		best = s2
	}
	return t - best
}

// WriteBursty renders the EXT-A comparison.
func WriteBursty(w io.Writer, cmps []BurstyComparison, cfg Config) error {
	fmt.Fprintf(w, "Extension EXT-A: arrival burstiness (x=%d t=%g alpha=%g laxity=%g M=%d mean-gap=%g jobs=%d seed=%d)\n",
		cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity, cfg.Procs, cfg.MeanInterarrival, cfg.Jobs, cfg.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "process\tthr(tunable)\tthr(shape1)\tthr(shape2)\tgain vs best\tutil(tunable)")
	for _, c := range cmps {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%+d\t%.3f\n",
			c.Process,
			c.Results[workload.Tunable].throughput(),
			c.Results[workload.Shape1].throughput(),
			c.Results[workload.Shape2].throughput(),
			c.gain(),
			c.Results[workload.Tunable].Utilization)
	}
	return tw.Flush()
}
