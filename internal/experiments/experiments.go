// Package experiments regenerates the paper's evaluation (Section 5): for
// each figure it sweeps the relevant parameter of the synthetic task system
// over the three task systems (tunable, shape 1, shape 2), runs the full
// stack — workload generator → QoS agent → QoS arbitrator → greedy
// scheduler — inside the discrete-event engine, and reports utilization and
// throughput.
package experiments

import (
	"fmt"
	"math"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/latency/phase"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/sim"
	"milan/internal/workload"
)

// Config parameterizes one simulation run.  DefaultConfig matches the
// paper's fixed values (x = 16, t = 25, 10,000 arrivals) with the
// held-constant sweep parameters recorded in EXPERIMENTS.md.
type Config struct {
	Procs            int // machine size M
	Job              workload.FigureJob
	MeanInterarrival float64 // Poisson mean gap
	Jobs             int     // number of arrivals
	Seed             int64
	Malleable        bool          // Section 5.4: tasks become malleable
	Opts             *core.Options // scheduler policy; nil = paper defaults
	// Obs, if set, observes every run driven by this configuration: the
	// sim engine's fired events, the planner's work (pulled at the end of
	// the run) and, in Run, the arbitrator's decision stream
	// (obs.Observer.DecisionObserver).  While
	// a run executes, the observer's clock follows the simulation clock.
	// When the observer traces (obs.Config.Tracing), the run loop mints one
	// trace per arrival and records arrival/run spans around the stages the
	// lower layers produce.  nil (the default) costs nothing.
	Obs *obs.Observer
	// SLO, if set, audits the run: every admission decision feeds the
	// engine's latency objective and in-flight set, and every admitted
	// job's completion is checked against its deadline (the hard
	// "admitted implies met" invariant).  Completions are simulated as
	// discrete events at the reservation finish.  nil (the default) costs
	// nothing and schedules no extra events.
	SLO *slo.Engine
	// Forensics, if set, retains a rejection diagnosis for every failed
	// admission of the run and closes the loop: after each rejection the
	// diagnosis's verified suggestion is replayed through the arbitrator's
	// side-effect-free WhatIf probe and the outcome recorded
	// (forensics.Recorder.MarkVerified).  nil (the default) costs nothing
	// — the planner's diagnosis path stays un-instrumented.
	Forensics *forensics.Recorder
	// Ledger, if set, accounts the run per tenant and priority class:
	// every commit is recorded in admission order, every admitted job's
	// completion realizes its reserved area, and the simulation clock
	// stamps the ledger's.  Attach a fresh ledger per run — totals are
	// cumulative.  nil (the default) schedules the same events and makes
	// the same decisions as no ledger at all.
	Ledger *ledger.Ledger
	// Tenants, if set (with Ledger), stamps each arrival with a tenant
	// and class before negotiation.
	Tenants *workload.TenantCycle
}

// schedulerOptions returns the effective scheduler options for a run:
// the configured policies plus, when a forensics recorder is present,
// its diagnosis sink.  The configured Options value is never mutated.
func (c Config) schedulerOptions() *core.Options {
	if c.Forensics == nil {
		return c.Opts
	}
	sink := c.Forensics.Record
	var o core.Options
	if c.Opts != nil {
		o = *c.Opts
	}
	if prev := o.Diagnosis; prev != nil {
		o.Diagnosis = func(d *core.PlanDiagnosis) {
			prev(d)
			sink(d)
		}
	} else {
		o.Diagnosis = sink
	}
	return &o
}

// DefaultConfig returns the baseline configuration: M = 32 processors,
// x = 16, t = 25, alpha = 0.25, laxity = 0.5, mean interarrival 30,
// 10,000 jobs.
func DefaultConfig() Config {
	return Config{
		Procs:            32,
		Job:              workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5},
		MeanInterarrival: 30,
		Jobs:             10000,
		Seed:             1,
	}
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("experiments: procs = %d", c.Procs)
	}
	if c.Jobs < 1 {
		return fmt.Errorf("experiments: jobs = %d", c.Jobs)
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("experiments: mean interarrival = %v", c.MeanInterarrival)
	}
	return c.Job.Validate()
}

// poisson returns the run's Poisson arrival process.
func (c Config) poisson() workload.Arrivals {
	return workload.NewPoisson(c.MeanInterarrival, c.Seed)
}

// jobs rolls the run's arrival stream: c.Jobs Figure-4 jobs of sys released
// by a, malleable under c.Malleable, billed by c.Tenants.
func (c Config) jobs(sys workload.System, a workload.Arrivals) []core.Job {
	return workload.Stream(a, c.Jobs, func(id int, r float64) core.Job {
		job := c.Job.Job(id, r, sys)
		if c.Malleable {
			job = job.MakeMalleable()
		}
		job.Tenant, job.Class = c.Tenants.Assign(id)
		return job
	})
}

// OfferedLoad returns the mean offered load of the configuration: job work
// divided by machine capacity times the mean interarrival gap.  Values
// above 1 mean the system is overloaded on average.
func (c Config) OfferedLoad() float64 {
	return c.Job.Area() / (float64(c.Procs) * c.MeanInterarrival)
}

// RunResult summarizes one simulation run of one task system.
type RunResult struct {
	System        workload.System
	Admitted      int // jobs admitted = jobs finishing on time (throughput)
	Rejected      int
	Utilization   float64 // reserved capacity fraction over [0, horizon]
	Horizon       float64 // max(last reservation finish, last release)
	ChainShare    []int   // how often each chain of the tunable job was chosen
	MeanLateSlack float64 // mean (deadline - finish) over admitted jobs
	Quality       float64 // sum of the granted chains' qualities
}

// throughput returns the number of on-time jobs (every admitted job meets
// its deadlines by construction of the reservation).
func (r RunResult) throughput() int { return r.Admitted }

// admitter is the arbitration surface the simulation loop drives: the fed
// plane every run builds (newPlane), and the reference qos.Arbitrator the
// differential test holds it to.  The WhatIf probe rides along so the loop
// can close the rejection loop.
type admitter interface {
	qos.TimedNegotiator
	Observe(now float64)
	Utilization(origin, horizon float64) float64
	Stats() core.Stats
	IndexStats() core.IndexStats
	WhatIf(job core.Job, d core.WhatIfDelta) (*core.Placement, bool)
}

// Run simulates one task system under the configuration, driving arrivals
// through the event engine and negotiating each job via a QoS agent against
// the arbitrator: the one-shard plane junctiond serves, which decides
// exactly what the reference qos.Arbitrator does.
func Run(cfg Config, sys workload.System) (RunResult, error) {
	if err := cfg.validate(); err != nil {
		return RunResult{}, err
	}
	return run(cfg, sys, cfg.poisson())
}

// run is Run with the arrivals drawn from a (cfg already validated).
func run(cfg Config, sys workload.System, a workload.Arrivals) (RunResult, error) {
	var feed func(qos.Decision)
	if cfg.Obs != nil {
		feed = cfg.Obs.DecisionObserver(nil)
	}
	plane, err := newPlane(cfg, feed)
	if err != nil {
		return RunResult{}, err
	}
	res := runLoop(cfg, cfg.jobs(sys, a), plane)
	res.System = sys
	return res, nil
}

// newPlane builds the admission plane a run drives: cfg.Procs processors,
// the run's scheduler options, and one decision feed — the ledger first
// (every decision lands on it under the plane's lock, so in commit order),
// then next (may be nil).  The ledger is stamped with the plane's capacity.
func newPlane(cfg Config, next func(qos.Decision)) (*fed.Arbitrator, error) {
	plane, err := fed.New(fed.Config{
		Procs:    cfg.Procs,
		Options:  cfg.schedulerOptions(),
		Observer: cfg.Ledger.DecisionObserver(next),
	})
	if err != nil {
		return nil, err
	}
	cfg.Ledger.SetCapacity(cfg.Procs) // nil-safe
	return plane, nil
}

// timedBy negotiates with an arbitrator under one request's phase record:
// what the run loop hands the job's QoS agent.
type timedBy struct {
	arb qos.TimedNegotiator
	rec *phase.Rec
}

func (t timedBy) Negotiate(job core.Job) (*qos.Grant, error) { return t.arb.NegotiateTimed(job, t.rec) }

// runLoop drives the discrete-event simulation of one arrival stream
// against an already-built arbitrator: each job is negotiated at its
// release.
func runLoop(cfg Config, jobs []core.Job, arb admitter) RunResult {
	var res RunResult
	var engine sim.Engine
	if cfg.Obs != nil {
		engine.OnEvent = cfg.Obs.BindEngine(&engine)
		defer cfg.Obs.SetClock(nil) // back to wall time after the run
	}
	var tracer *obs.Tracer
	if cfg.Obs != nil {
		tracer = cfg.Obs.Tracer()
	}
	if cfg.Forensics != nil {
		// Stamp retained diagnoses with the simulation clock, not wall time.
		cfg.Forensics.SetClock(engine.Now)
	}
	// Auditing (tracing or SLO accounting) adds completion events to the
	// simulation and times each negotiation with a phase record, which the
	// admission spans are read off and which ends into the SLO engine's
	// latency plane; the default path schedules and measures nothing extra.
	auditing := cfg.SLO != nil || tracer != nil
	var sink phase.Sink // a nil *latency.Plane must not become a non-nil Sink
	if lp := cfg.SLO.Latency(); lp != nil {
		sink = lp
	}
	var lastFinish, lastRelease float64
	var slackSum float64

	engine.Arrive(len(jobs), func(i int) float64 { return jobs[i].Release }, func(id int) {
		now := engine.Now()
		lastRelease = now
		arb.Observe(now)
		// The ledger's clock follows the simulation's.  (The fed plane's
		// Observe already advanced it through its clock decision; the
		// reference arbitrator announces no clock.  Advance is monotone.)
		cfg.Ledger.Advance(now)
		job := jobs[id]
		var root *obs.ActiveSpan
		if tracer != nil {
			tr := tracer.NewTrace()
			root = tracer.StartAt(tr, 0, "job.admit", obs.StageArrival, id, now)
			job.Trace = uint64(tr)
			job.Span = uint64(root.ID())
		}
		var rec phase.Rec // inert unless auditing
		if auditing {
			rec = phase.Start(sink, job.Trace, int64(id))
		}
		ag := qos.NewAgent(job)
		g, err := ag.NegotiateWith(timedBy{arb, &rec})
		rec.End()
		root.EndAdmission(&rec, g, err)
		if err != nil {
			res.Rejected++
			if cfg.Forensics != nil {
				// Close the loop: replay the diagnosis's suggested
				// relaxation through the side-effect-free WhatIf probe
				// and record whether it flips the job to admitted.
				if rec, ok := cfg.Forensics.LastFor(job.ID); ok && rec.Diag.Suggestion != nil {
					_, admitted := arb.WhatIf(job, *rec.Diag.Suggestion)
					cfg.Forensics.MarkVerified(job.ID, admitted)
				}
			}
			if auditing {
				cfg.SLO.JobRejected()
				cfg.SLO.Tick(now)
			}
			return
		}
		res.Admitted++
		res.Quality += g.Quality
		finish := g.Finish()
		lastFinish = math.Max(lastFinish, finish)
		chain := job.Chains[g.Chain]
		deadline := chain.Tasks[len(chain.Tasks)-1].Deadline
		slackSum += deadline - finish
		for len(res.ChainShare) <= g.Chain {
			res.ChainShare = append(res.ChainShare, 0)
		}
		res.ChainShare[g.Chain]++
		if !auditing && cfg.Ledger == nil {
			return
		}
		var run *obs.ActiveSpan
		if auditing {
			run = tracer.StartAt(obs.TraceID(job.Trace), obs.SpanID(job.Span),
				"job.run", obs.StageRun, id, g.Placement.Start())
			run.SetAttr("deadline", deadline)
			run.SetAttr("reserved_finish", finish)
			cfg.SLO.JobAdmitted(id, job.Trace, now, deadline, finish)
			cfg.SLO.Tick(now)
		}
		// Completion realizes the reserved area.
		led := cfg.Ledger
		key := ledger.KeyOf(&job)
		pl := g.Placement
		engine.At(finish, "complete", func() {
			// End the run span before the completion lands in the SLO
			// engine so a triggered flight snapshot already holds the span
			// that convicts the stage.
			run.EndAt(finish)
			cfg.SLO.JobCompleted(id, finish)
			led.RecordCompletion(key, &pl)
		})
	})
	engine.Run()

	if cfg.Obs != nil {
		cfg.Obs.RecordPlanner(arb.Stats(), arb.IndexStats())
	}
	res.Horizon = math.Max(lastFinish, lastRelease)
	if res.Horizon > 0 {
		res.Utilization = arb.Utilization(0, res.Horizon)
	}
	if res.Admitted > 0 {
		res.MeanLateSlack = slackSum / float64(res.Admitted)
	}
	return res
}

// Point is one x-value of a figure with the three systems' results.
type Point struct {
	Param   float64
	Results map[workload.System]RunResult
}

// throughputGain returns tunable throughput minus the best non-tunable one.
func (p Point) throughputGain() int {
	t := p.Results[workload.Tunable].throughput()
	best := p.Results[workload.Shape1].throughput()
	if b := p.Results[workload.Shape2].throughput(); b > best {
		best = b
	}
	return t - best
}

// Figure is a complete single-parameter sweep (Figures 5a-5d).
type Figure struct {
	ID        string
	ParamName string
	Points    []Point
}

// sweep runs all three systems at every parameter value.
func sweep(id, paramName string, params []float64, mk func(float64) Config) (Figure, error) {
	fig := Figure{ID: id, ParamName: paramName}
	for _, v := range params {
		cfg := mk(v)
		pt := Point{Param: v, Results: make(map[workload.System]RunResult, 3)}
		for _, sys := range workload.Systems {
			r, err := Run(cfg, sys)
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: %s at %s=%v system %s: %w", id, paramName, v, sys, err)
			}
			pt.Results[sys] = r
		}
		fig.Points = append(fig.Points, pt)
	}
	return fig, nil
}

// defaultIntervals is the Figure 5(a) sweep domain (the paper varies the
// mean arrival interval from 10 to 85 with t = 25).
func defaultIntervals() []float64 {
	var out []float64
	for v := 10.0; v <= 85; v += 5 {
		out = append(out, v)
	}
	return out
}

// defaultLaxities is the Figure 5(b) sweep domain (0.05 to 0.95).
func defaultLaxities() []float64 {
	var out []float64
	for v := 0.05; v <= 0.951; v += 0.05 {
		out = append(out, math.Round(v*100)/100)
	}
	return out
}

// defaultProcs is the Figure 5(c) sweep domain (16 to 64 processors).
func defaultProcs() []float64 {
	var out []float64
	for v := 16; v <= 64; v += 4 {
		out = append(out, float64(v))
	}
	return out
}

// Fig5a sweeps the mean arrival interval.
func Fig5a(base Config, intervals []float64) (Figure, error) {
	if intervals == nil {
		intervals = defaultIntervals()
	}
	return sweep("5a", "arrival-interval", intervals, func(v float64) Config {
		cfg := base
		cfg.MeanInterarrival = v
		return cfg
	})
}

// Fig5b sweeps the laxity.
func Fig5b(base Config, laxities []float64) (Figure, error) {
	if laxities == nil {
		laxities = defaultLaxities()
	}
	return sweep("5b", "laxity", laxities, func(v float64) Config {
		cfg := base
		cfg.Job.Laxity = v
		return cfg
	})
}

// Fig5c sweeps the machine size.
func Fig5c(base Config, procs []float64) (Figure, error) {
	if procs == nil {
		procs = defaultProcs()
	}
	return sweep("5c", "processors", procs, func(v float64) Config {
		cfg := base
		cfg.Procs = int(v)
		return cfg
	})
}

// Fig5d sweeps the job shape alpha over all values keeping x*alpha integral.
func Fig5d(base Config, alphas []float64) (Figure, error) {
	if alphas == nil {
		alphas = workload.ValidAlphas(base.Job.X)
	}
	return sweep("5d", "alpha", alphas, func(v float64) Config {
		cfg := base
		cfg.Job.Alpha = v
		return cfg
	})
}

// Grid is a two-parameter benefit surface (Figures 6a and 6b): tunable
// throughput minus each non-tunable shape's throughput over the arrival
// interval x laxity grid.
type Grid struct {
	ID        string
	Malleable bool
	Intervals []float64
	Laxities  []float64
	// VsShape1[i][j] is the benefit at Intervals[i], Laxities[j].
	VsShape1 [][]int
	VsShape2 [][]int
	// Tunable[i][j] is the tunable system's absolute throughput.
	Tunable [][]int
}

// Fig6 builds the benefit grid; malleable selects Figure 6(b)'s task model.
func Fig6(base Config, intervals, laxities []float64, malleable bool) (Grid, error) {
	if intervals == nil {
		intervals = []float64{10, 20, 30, 40, 55, 70, 85}
	}
	if laxities == nil {
		laxities = []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}
	}
	id := "6a"
	if malleable {
		id = "6b"
	}
	g := Grid{ID: id, Malleable: malleable, Intervals: intervals, Laxities: laxities}
	g.VsShape1 = make([][]int, len(intervals))
	g.VsShape2 = make([][]int, len(intervals))
	g.Tunable = make([][]int, len(intervals))
	for i, iv := range intervals {
		g.VsShape1[i] = make([]int, len(laxities))
		g.VsShape2[i] = make([]int, len(laxities))
		g.Tunable[i] = make([]int, len(laxities))
		for j, lax := range laxities {
			cfg := base
			cfg.MeanInterarrival = iv
			cfg.Job.Laxity = lax
			cfg.Malleable = malleable
			var thr [3]int
			for k, sys := range workload.Systems {
				r, err := Run(cfg, sys)
				if err != nil {
					return Grid{}, fmt.Errorf("experiments: %s at (%v, %v) system %s: %w", id, iv, lax, sys, err)
				}
				thr[k] = r.throughput()
			}
			g.Tunable[i][j] = thr[0]
			g.VsShape1[i][j] = thr[0] - thr[1]
			g.VsShape2[i][j] = thr[0] - thr[2]
		}
	}
	return g, nil
}

// maxBenefit returns the largest entry of the grid slice.
func maxBenefit(grid [][]int) int {
	best := math.MinInt32
	for _, row := range grid {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// meanBenefit returns the mean entry of the grid slice.
func meanBenefit(grid [][]int) float64 {
	var sum, n float64
	for _, row := range grid {
		for _, v := range row {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
