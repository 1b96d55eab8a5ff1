package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"milan/internal/core"
	"milan/internal/sim"
	"milan/internal/workload"
)

// BestEffortResult summarizes a best-effort run: every job executes
// eventually, but nothing guarantees it executes on time.
type BestEffortResult struct {
	System        workload.System
	OnTime        int
	Late          int
	MeanTardiness float64 // mean (finish - deadline) over late jobs
	MaxTardiness  float64
	Utilization   float64
}

// runBestEffort simulates the classical best-effort parallel scheduler the
// paper's introduction argues against: no admission control, tasks
// dispatched in EDF order (with skipping: a ready task that does not fit
// lets smaller later-deadline tasks through) onto free processors.  "A
// specific application can experience arbitrary delay which may grow with
// the number of applications contending for the resources" — this run
// measures that delay.
//
// Jobs use one fixed chain (best effort has no path-selection machinery);
// pass Shape1 or Shape2.
func runBestEffort(cfg Config, sys workload.System) (BestEffortResult, error) {
	if err := cfg.validate(); err != nil {
		return BestEffortResult{}, err
	}
	if sys == workload.Tunable {
		return BestEffortResult{}, fmt.Errorf("experiments: best effort needs a fixed shape")
	}

	type readyTask struct {
		job   int
		index int
		task  core.Task
	}
	var (
		engine    sim.Engine
		free      = cfg.Procs
		ready     []readyTask
		res       = BestEffortResult{System: sys}
		busy      float64
		lastEvent float64
		jobs      = cfg.Job.Stream(cfg.poisson(), cfg.Jobs, sys)
	)

	var dispatch func()
	finishTask := func(rt readyTask) {
		free += rt.task.Procs
		job := jobs[rt.job]
		chain := job.Chains[0]
		now := engine.Now()
		if rt.index+1 < len(chain.Tasks) {
			ready = append(ready, readyTask{job: rt.job, index: rt.index + 1, task: chain.Tasks[rt.index+1]})
		} else {
			deadline := chain.Tasks[len(chain.Tasks)-1].Deadline
			if now <= deadline+1e-9 {
				res.OnTime++
			} else {
				res.Late++
				tard := now - deadline
				res.MeanTardiness += tard
				if tard > res.MaxTardiness {
					res.MaxTardiness = tard
				}
			}
		}
		dispatch()
	}

	dispatch = func() {
		// EDF with skipping over the ready queue.
		sort.SliceStable(ready, func(a, b int) bool {
			if ready[a].task.Deadline != ready[b].task.Deadline {
				return ready[a].task.Deadline < ready[b].task.Deadline
			}
			return ready[a].job < ready[b].job
		})
		var rest []readyTask
		for _, rt := range ready {
			if rt.task.Procs <= free {
				free -= rt.task.Procs
				busy += float64(rt.task.Procs) * rt.task.Duration
				rt := rt
				finish := engine.Now() + rt.task.Duration
				if finish > lastEvent {
					lastEvent = finish
				}
				engine.At(finish, "finish", func() { finishTask(rt) })
			} else {
				rest = append(rest, rt)
			}
		}
		ready = rest
	}

	engine.Arrive(len(jobs), func(i int) float64 { return jobs[i].Release }, func(id int) {
		ready = append(ready, readyTask{job: id, index: 0, task: jobs[id].Chains[0].Tasks[0]})
		dispatch()
	})
	engine.Run()

	if res.Late > 0 {
		res.MeanTardiness /= float64(res.Late)
	}
	if lastEvent > 0 {
		res.Utilization = busy / (float64(cfg.Procs) * lastEvent)
	}
	return res, nil
}

// BestEffortComparison is the EXT-B extension: best-effort EDF execution of
// each fixed shape against the reservation-based tunable system at the
// same load.
func BestEffortComparison(cfg Config) ([]BestEffortResult, RunResult, error) {
	var out []BestEffortResult
	for _, sys := range []workload.System{workload.Shape1, workload.Shape2} {
		r, err := runBestEffort(cfg, sys)
		if err != nil {
			return nil, RunResult{}, err
		}
		out = append(out, r)
	}
	reserved, err := Run(cfg, workload.Tunable)
	if err != nil {
		return nil, RunResult{}, err
	}
	return out, reserved, nil
}

// WriteBestEffort renders the EXT-B comparison.
func WriteBestEffort(w io.Writer, be []BestEffortResult, reserved RunResult, cfg Config) error {
	fmt.Fprintf(w, "Extension EXT-B: best-effort EDF vs admission control (x=%d t=%g alpha=%g laxity=%g M=%d interval=%g jobs=%d seed=%d)\n",
		cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity, cfg.Procs, cfg.MeanInterarrival, cfg.Jobs, cfg.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\ton-time\tlate\tmean tardiness\tmax tardiness\tutil")
	for _, r := range be {
		fmt.Fprintf(tw, "best-effort EDF (%s)\t%d\t%d\t%.1f\t%.1f\t%.3f\n",
			r.System, r.OnTime, r.Late, r.MeanTardiness, r.MaxTardiness, r.Utilization)
	}
	fmt.Fprintf(tw, "reservation (tunable)\t%d\t0\t0.0\t0.0\t%.3f\n",
		reserved.throughput(), reserved.Utilization)
	return tw.Flush()
}
