package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"milan/internal/fed"
	"milan/internal/qos"
	"milan/internal/sim"
	"milan/internal/workload"
)

// CapacityEvent changes the machine size at a point in simulated time.
type CapacityEvent struct {
	At    float64
	Procs int
}

// ChurnResult summarizes one run under a capacity trace.
type ChurnResult struct {
	Label     string
	Admitted  int
	Rejected  int
	Aborted   int // evicted by capacity loss
	Rescued   int // waiting jobs admitted after capacity growth
	Completed int // admitted minus aborted: jobs that actually met deadlines
}

// ChurnRun is the EXT-R extension experiment: the machine's size follows a
// trace of join/leave events (the metacomputing scenario of Section 3.1)
// while tunable jobs arrive.  The renegotiating arbitrator is compared
// against static arbitrators provisioned at the trace's minimum and
// maximum capacity.
func ChurnRun(cfg Config, trace []CapacityEvent) ([]ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		trace = []CapacityEvent{
			{At: 0.25, Procs: cfg.Procs / 2},
			{At: 0.5, Procs: cfg.Procs * 2},
			{At: 0.75, Procs: cfg.Procs},
		}
		// Fractions of the run horizon; scaled below.
		horizon := float64(cfg.Jobs) * cfg.MeanInterarrival
		for i := range trace {
			trace[i].At *= horizon
		}
	}
	min, max := cfg.Procs, cfg.Procs
	for _, ev := range trace {
		if ev.Procs < min {
			min = ev.Procs
		}
		if ev.Procs > max {
			max = ev.Procs
		}
	}

	dyn, err := runChurnDynamic(cfg, trace)
	if err != nil {
		return nil, err
	}
	declared, err := runChurnStatic(cfg, trace)
	if err != nil {
		return nil, err
	}
	results := []ChurnResult{dyn, declared}
	for _, static := range []struct {
		label string
		procs int
	}{
		{"static-min (conservative)", min},
		{"static-max (oracle bound)", max},
	} {
		scfg := cfg
		scfg.Procs = static.procs
		r, err := Run(scfg, workload.Tunable)
		if err != nil {
			return nil, err
		}
		results = append(results, ChurnResult{
			Label:     static.label,
			Admitted:  r.Admitted,
			Rejected:  r.Rejected,
			Completed: r.Admitted,
		})
	}
	return results, nil
}

// runChurnStatic models an arbitrator that ignores churn: it schedules
// against the declared size M0 while the machine actually follows the
// trace.  Afterwards, every instant where committed usage exceeds the true
// capacity marks all jobs holding reservations at that instant as failed —
// the predictability loss renegotiation exists to avoid.
func runChurnStatic(cfg Config, trace []CapacityEvent) (ChurnResult, error) {
	arb, err := fed.New(fed.Config{Procs: cfg.Procs, Options: cfg.Opts})
	if err != nil {
		return ChurnResult{}, err
	}
	arrivals := workload.NewPoisson(cfg.MeanInterarrival, cfg.Seed)
	res := ChurnResult{Label: "static-declared (ignores churn)"}

	type span struct {
		job           int
		start, finish float64
		procs         int
	}
	var spans []span
	release := 0.0
	for id := 0; id < cfg.Jobs; id++ {
		release += arrivals.Next()
		arb.Observe(release)
		job := cfg.Job.Job(id, release, workload.Tunable)
		if cfg.Malleable {
			job = job.MakeMalleable()
		}
		g, err := qos.NewAgent(job).NegotiateWith(arb)
		if err != nil {
			res.Rejected++
			continue
		}
		res.Admitted++
		for _, tp := range g.Placement.Tasks {
			spans = append(spans, span{job: id, start: tp.Start, finish: tp.Finish, procs: tp.Procs})
		}
	}

	// Event sweep against the true capacity: at every boundary, if the
	// committed usage exceeds what the machine really has, every job with
	// an active reservation misses its guarantee.
	type event struct {
		at    float64
		procs int // usage delta; 0 for capacity events
		job   int
		cap   int // new capacity for capacity events, -1 otherwise
	}
	var events []event
	for _, s := range spans {
		events = append(events, event{at: s.start, procs: s.procs, job: s.job, cap: -1})
		events = append(events, event{at: s.finish, procs: -s.procs, job: s.job, cap: -1})
	}
	for _, ev := range trace {
		events = append(events, event{at: ev.At, cap: ev.Procs})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Releases before acquisitions at the same instant (half-open
		// intervals), capacity changes in between.
		return events[i].procs < events[j].procs
	})

	capacity := cfg.Procs
	usage := 0
	active := make(map[int]int) // job -> active reserved procs
	failed := make(map[int]bool)
	checkOverload := func() {
		if usage > capacity {
			for job := range active {
				failed[job] = true
			}
		}
	}
	for _, ev := range events {
		if ev.cap >= 0 {
			capacity = ev.cap
		} else {
			usage += ev.procs
			active[ev.job] += ev.procs
			if active[ev.job] <= 0 {
				delete(active, ev.job)
			}
		}
		checkOverload()
	}
	res.Aborted = len(failed)
	res.Completed = res.Admitted - res.Aborted
	return res, nil
}

// runChurnDynamic drives the renegotiating arbitrator through the trace.
func runChurnDynamic(cfg Config, trace []CapacityEvent) (ChurnResult, error) {
	d, err := qos.NewDynamicArbitrator(cfg.Procs, cfg.Opts)
	if err != nil {
		return ChurnResult{}, err
	}
	arrivals := workload.NewPoisson(cfg.MeanInterarrival, cfg.Seed)
	var engine sim.Engine
	res := ChurnResult{Label: "dynamic (renegotiating)"}

	for _, ev := range trace {
		procs := ev.Procs
		engine.At(ev.At, "capacity", func() {
			d.Observe(engine.Now())
			if _, err := d.SetCapacity(procs); err != nil {
				panic(err) // validated trace; programming error
			}
		})
	}

	var scheduleArrival func(id int)
	scheduleArrival = func(id int) {
		if id >= cfg.Jobs {
			return
		}
		engine.After(arrivals.Next(), "arrival", func() {
			now := engine.Now()
			d.Observe(now)
			job := cfg.Job.Job(id, now, workload.Tunable)
			if cfg.Malleable {
				job = job.MakeMalleable()
			}
			if _, err := d.NegotiateOrWait(job, nil); err == nil {
				res.Admitted++
			} else {
				res.Rejected++
			}
			scheduleArrival(id + 1)
		})
	}
	scheduleArrival(0)
	engine.Run()

	st := d.Stats()
	res.Admitted = st.Admitted // includes rescued waiters
	res.Aborted = st.Aborted
	res.Rescued = st.Rescued
	res.Rejected = cfg.Jobs - (st.Admitted - st.Rescued) // arrivals not admitted on first try
	res.Completed = st.Admitted - st.Aborted
	return res, nil
}

// WriteChurn renders the EXT-R comparison.
func WriteChurn(w io.Writer, results []ChurnResult, cfg Config, trace []CapacityEvent) error {
	fmt.Fprintf(w, "Extension EXT-R: renegotiation under capacity churn (x=%d t=%g alpha=%g laxity=%g M0=%d jobs=%d seed=%d)\n",
		cfg.Job.X, cfg.Job.T, cfg.Job.Alpha, cfg.Job.Laxity, cfg.Procs, cfg.Jobs, cfg.Seed)
	if len(trace) > 0 {
		fmt.Fprint(w, "capacity trace:")
		for _, ev := range trace {
			fmt.Fprintf(w, " t=%.0f->%d", ev.At, ev.Procs)
		}
		fmt.Fprintln(w)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tadmitted\trejected\taborted\trescued\tcompleted-on-time")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Label, r.Admitted, r.Rejected, r.Aborted, r.Rescued, r.Completed)
	}
	return tw.Flush()
}
