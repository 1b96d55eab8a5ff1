package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/qos"
	"milan/internal/sim"
	"milan/internal/workload"
)

// QualityResult summarizes one quality-workload run under one policy.
type QualityResult struct {
	Policy        string
	Admitted      int
	Rejected      int
	MeanQuality   float64 // over admitted jobs
	TotalQuality  float64 // sum over admitted jobs (0 credit for rejections)
	DegradedShare float64 // fraction of admitted jobs granted a degraded path
	Utilization   float64
}

// QualityPoint compares policies at one arrival interval.
type QualityPoint struct {
	Interval float64
	Results  []QualityResult
}

// QualitySweep is the EXT-Q extension experiment: jobs offer full-quality
// and degraded execution paths (different total work, different quality —
// the setting Section 5.1 describes but does not evaluate) and the sweep
// compares the paper's earliest-finish objective against the
// quality-maximizing objective as load varies.
func QualitySweep(base Config, intervals []float64, degradedScale, degradedQuality float64) ([]QualityPoint, error) {
	if intervals == nil {
		intervals = []float64{10, 20, 30, 45, 60, 85}
	}
	spec := workload.QualityJob{
		Base:            base.Job,
		DegradedScale:   degradedScale,
		DegradedQuality: degradedQuality,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		opts *core.Options
	}{
		{"earliest-finish (paper)", nil},
		{"max-quality", &core.Options{TieBreak: core.TieBreakMaxQuality}},
		{"min-area (greedy cheap)", &core.Options{TieBreak: core.TieBreakMinArea}},
	}
	var out []QualityPoint
	for _, iv := range intervals {
		pt := QualityPoint{Interval: iv}
		for _, pol := range policies {
			cfg := base
			cfg.MeanInterarrival = iv
			cfg.Opts = pol.opts
			r, err := runQuality(cfg, spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: quality sweep at %v/%s: %w", iv, pol.name, err)
			}
			r.Policy = pol.name
			pt.Results = append(pt.Results, r)
		}
		out = append(out, pt)
	}
	return out, nil
}

// runQuality drives one quality-workload simulation.
func runQuality(cfg Config, spec workload.QualityJob) (QualityResult, error) {
	if err := cfg.Validate(); err != nil {
		return QualityResult{}, err
	}
	arb, err := fed.New(fed.Config{Procs: cfg.Procs, Options: cfg.Opts})
	if err != nil {
		return QualityResult{}, err
	}
	arrivals := workload.NewPoisson(cfg.MeanInterarrival, cfg.Seed)
	var engine sim.Engine
	var res QualityResult
	var lastFinish, lastRelease float64
	degraded := 0

	var scheduleArrival func(id int)
	scheduleArrival = func(id int) {
		if id >= cfg.Jobs {
			return
		}
		engine.After(arrivals.Next(), "arrival", func() {
			now := engine.Now()
			lastRelease = now
			arb.Observe(now)
			job := spec.Job(id, now)
			g, err := qos.NewAgent(job).NegotiateWith(arb)
			if err == nil {
				res.Admitted++
				res.TotalQuality += g.Quality
				if g.Quality < 1 {
					degraded++
				}
				if f := g.Finish(); f > lastFinish {
					lastFinish = f
				}
			} else {
				res.Rejected++
			}
			scheduleArrival(id + 1)
		})
	}
	scheduleArrival(0)
	engine.Run()

	if res.Admitted > 0 {
		res.MeanQuality = res.TotalQuality / float64(res.Admitted)
		res.DegradedShare = float64(degraded) / float64(res.Admitted)
	}
	horizon := lastFinish
	if lastRelease > horizon {
		horizon = lastRelease
	}
	if horizon > 0 {
		res.Utilization = arb.Utilization(0, horizon)
	}
	return res, nil
}

// WriteQuality renders the EXT-Q comparison table.
func WriteQuality(w io.Writer, pts []QualityPoint, cfg Config) error {
	fmt.Fprintf(w, "Extension EXT-Q: quality maximization (x=%d t=%g alpha=%g laxity=%g M=%d jobs=%d seed=%d)\n",
		cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity, cfg.Procs, cfg.Jobs, cfg.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "interval\tpolicy\tadmitted\tmean-quality\ttotal-quality\tdegraded-share\tutil")
	for _, pt := range pts {
		for _, r := range pt.Results {
			fmt.Fprintf(tw, "%g\t%s\t%d\t%.3f\t%.0f\t%.2f\t%.3f\n",
				pt.Interval, r.Policy, r.Admitted, r.MeanQuality, r.TotalQuality, r.DegradedShare, r.Utilization)
		}
	}
	return tw.Flush()
}
