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
	// ArrivalFactory, if set, overrides the Poisson arrival process (the
	// mean interarrival still describes the intended load for reporting).
	ArrivalFactory func(seed int64) workload.Arrivals
	// Obs, if set, observes every run driven by this configuration: the
	// sim engine's fired events, the planner's work (pulled at the end of
	// the run) and, in Run, the arbitrator's decision stream
	// (obs.Observer.DecisionObserver; RunSharded does not feed it).  While
	// a run executes, the observer's clock follows the simulation clock.
	// When the observer traces (obs.Config.Tracing), the run loop mints one
	// trace per arrival and records arrival/run spans around the stages the
	// lower layers produce.  nil (the default) costs nothing.
	Obs *obs.Observer
	// SLO, if set, audits the run: every admission decision feeds the
	// engine's latency objective and in-flight set, and every admitted
	// job's completion is checked against its deadline (the hard
	// "admitted implies met" invariant).  Completions are simulated as
	// discrete events at the reservation finish plus CompletionDelay.
	// nil (the default) costs nothing and schedules no extra events.
	SLO *slo.Engine
	// CompletionDelay shifts every admitted job's simulated completion
	// past its reservation finish — a fault-injection knob: a positive
	// delay makes the runtime break reservations it was granted, which
	// the SLO engine must flag as deadline misses and the flight
	// recorder's replay must localize to the runtime stage.  Zero (the
	// default) completes jobs exactly when their reservation promised.
	CompletionDelay float64
	// Forensics, if set, retains a rejection diagnosis for every failed
	// admission of the run and closes the loop: after each rejection the
	// diagnosis's verified suggestion is replayed through the arbitrator's
	// side-effect-free WhatIf probe and the outcome recorded
	// (forensics.Recorder.MarkVerified).  nil (the default) costs nothing
	// — the planner's diagnosis path stays un-instrumented.
	Forensics *forensics.Recorder
	// Ledger, if set, accounts the run per tenant and priority class:
	// every commit is recorded in admission order on the granting shard's
	// ledger (shard 0 in Run), every admitted job's completion realizes its
	// reserved area, and the simulation clock stamps the ledger's.  Attach
	// a fresh ledger per run — totals are cumulative.  nil (the default)
	// schedules the same events and makes the same decisions as no ledger
	// at all.
	Ledger *ledger.Sharded
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

// Validate checks the configuration.
func (c Config) Validate() error {
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
}

// Throughput returns the number of on-time jobs (every admitted job meets
// its deadlines by construction of the reservation).
func (r RunResult) Throughput() int { return r.Admitted }

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
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	var feed func(qos.Decision)
	if cfg.Obs != nil {
		feed = cfg.Obs.DecisionObserver(nil)
	}
	plane, err := newPlane(cfg, 1, 1, feed)
	if err != nil {
		return RunResult{}, err
	}
	return runLoop(cfg, sys, plane)
}

// newPlane builds the admission plane a run drives: cfg.Procs processors
// over shards partitions, the run's scheduler options, and one decision
// feed — the ledger first (every decision lands on the deciding shard's
// ledger under that shard's lock, so in commit order), then next (may be
// nil).  Each shard ledger is stamped with its shard's capacity; the run
// loop routes completions back by the grant's Shard.
func newPlane(cfg Config, shards, probeK int, next func(qos.Decision)) (*fed.Arbitrator, error) {
	if cfg.Ledger != nil && cfg.Ledger.Shards() < shards {
		return nil, fmt.Errorf("experiments: ledger has %d shards, plane needs %d", cfg.Ledger.Shards(), shards)
	}
	plane, err := fed.New(fed.Config{
		Procs:  cfg.Procs,
		Shards: shards,
		ProbeK: probeK,
		// At two shards and up the plane stamps each diagnosis with the
		// deciding shard before handing it to the run's forensics recorder.
		Options:  cfg.schedulerOptions(),
		Observer: cfg.Ledger.DecisionObserver(next),
	})
	if err != nil {
		return nil, err
	}
	for i, procs := range plane.ShardProcs() {
		cfg.Ledger.Shard(i).SetCapacity(procs) // nil-safe
	}
	return plane, nil
}

// timedBy negotiates with an arbitrator under one request's phase record:
// what the run loop hands the job's QoS agent.
type timedBy struct {
	arb qos.TimedNegotiator
	rec *phase.Rec
}

func (t timedBy) Negotiate(job core.Job) (*qos.Grant, error) { return t.arb.NegotiateTimed(job, t.rec) }

// runLoop drives the discrete-event simulation of one task system against
// an already-built arbitrator.
func runLoop(cfg Config, sys workload.System, arb admitter) (RunResult, error) {
	var arrivals workload.Arrivals
	if cfg.ArrivalFactory != nil {
		arrivals = cfg.ArrivalFactory(cfg.Seed)
	} else {
		arrivals = workload.NewPoisson(cfg.MeanInterarrival, cfg.Seed)
	}
	res := RunResult{System: sys}
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
	// admission latency and the admission spans are read off; the default
	// path schedules and measures nothing extra.
	auditing := cfg.SLO != nil || tracer != nil
	var lastFinish, lastRelease float64
	var slackSum float64

	var scheduleArrival func(id int)
	scheduleArrival = func(id int) {
		if id >= cfg.Jobs {
			return
		}
		gap := arrivals.Next()
		engine.After(gap, "arrival", func() {
			now := engine.Now()
			lastRelease = now
			arb.Observe(now)
			// The ledger's clock follows the simulation's.  (The plane's
			// Observe already advanced its shards' ledgers through their
			// clock decisions; Advance is monotone, so this one moves only
			// ledgers no plane shard feeds.)
			cfg.Ledger.Advance(now)
			job := cfg.Job.Job(id, now, sys)
			if cfg.Malleable {
				job = job.MakeMalleable()
			}
			if cfg.Tenants != nil {
				job.Tenant, job.Class = cfg.Tenants.Assign(id)
			}
			var root *obs.ActiveSpan
			if tracer != nil {
				tr := tracer.NewTrace()
				root = tracer.StartAt(tr, 0, "job.admit", obs.StageArrival, id, now)
				job.Trace = uint64(tr)
				job.Span = uint64(root.ID())
			}
			var rec phase.Rec // inert unless auditing
			if auditing {
				rec = phase.Start(nil, job.Trace, int64(id))
			}
			ag := qos.NewAgent(job)
			g, err := ag.NegotiateWith(timedBy{arb, &rec})
			rec.End()
			root.EndAdmission(&rec, g, err)
			latency := float64(rec.Total()) / 1e9
			if err == nil {
				res.Admitted++
				if f := g.Finish(); f > lastFinish {
					lastFinish = f
				}
				chain := job.Chains[g.Chain]
				deadline := chain.Tasks[len(chain.Tasks)-1].Deadline
				slackSum += deadline - g.Finish()
				for len(res.ChainShare) <= g.Chain {
					res.ChainShare = append(res.ChainShare, 0)
				}
				res.ChainShare[g.Chain]++
				if auditing || cfg.Ledger != nil {
					finish := g.Finish() + cfg.CompletionDelay
					if finish < now {
						finish = now
					}
					var run *obs.ActiveSpan
					if auditing {
						run = tracer.StartAt(obs.TraceID(job.Trace), obs.SpanID(job.Span),
							"job.run", obs.StageRun, id, g.Placement.Start())
						run.SetAttr("deadline", deadline)
						run.SetAttr("reserved_finish", g.Finish())
						cfg.SLO.JobAdmitted(id, job.Trace, now, latency, deadline, g.Finish())
						cfg.SLO.Tick(now)
					}
					jobID := id
					// Completion realizes the reserved area on the shard
					// that granted it (qos.Grant.Shard; 0 at one shard).
					led := cfg.Ledger.Shard(g.Shard)
					key := ledger.KeyOf(&job)
					pl := g.Placement
					ev := engine.At(finish, "complete", func() {
						// End the run span before the completion lands in
						// the SLO engine so a triggered flight snapshot
						// already holds the span that convicts the stage.
						run.EndAt(finish)
						cfg.SLO.JobCompleted(jobID, finish)
						led.RecordCompletion(key, &pl)
					})
					ev.Trace = job.Trace
				}
			} else {
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
					cfg.SLO.JobRejected(id, job.Trace, now, latency)
					cfg.SLO.Tick(now)
				}
			}
			scheduleArrival(id + 1)
		})
	}
	scheduleArrival(0)
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
	return res, nil
}

// Point is one x-value of a figure with the three systems' results.
type Point struct {
	Param   float64
	Results map[workload.System]RunResult
}

// UtilGain returns tunable utilization minus the best non-tunable one.
func (p Point) UtilGain() float64 {
	t := p.Results[workload.Tunable].Utilization
	best := math.Max(p.Results[workload.Shape1].Utilization, p.Results[workload.Shape2].Utilization)
	return t - best
}

// ThroughputGain returns tunable throughput minus the best non-tunable one.
func (p Point) ThroughputGain() int {
	t := p.Results[workload.Tunable].Throughput()
	best := p.Results[workload.Shape1].Throughput()
	if b := p.Results[workload.Shape2].Throughput(); b > best {
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

// DefaultIntervals is the Figure 5(a) sweep domain (the paper varies the
// mean arrival interval from 10 to 85 with t = 25).
func DefaultIntervals() []float64 {
	var out []float64
	for v := 10.0; v <= 85; v += 5 {
		out = append(out, v)
	}
	return out
}

// DefaultLaxities is the Figure 5(b) sweep domain (0.05 to 0.95).
func DefaultLaxities() []float64 {
	var out []float64
	for v := 0.05; v <= 0.951; v += 0.05 {
		out = append(out, math.Round(v*100)/100)
	}
	return out
}

// DefaultProcs is the Figure 5(c) sweep domain (16 to 64 processors).
func DefaultProcs() []float64 {
	var out []float64
	for v := 16; v <= 64; v += 4 {
		out = append(out, float64(v))
	}
	return out
}

// Fig5a sweeps the mean arrival interval.
func Fig5a(base Config, intervals []float64) (Figure, error) {
	if intervals == nil {
		intervals = DefaultIntervals()
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
		laxities = DefaultLaxities()
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
		procs = DefaultProcs()
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
				thr[k] = r.Throughput()
			}
			g.Tunable[i][j] = thr[0]
			g.VsShape1[i][j] = thr[0] - thr[1]
			g.VsShape2[i][j] = thr[0] - thr[2]
		}
	}
	return g, nil
}

// MaxBenefit returns the largest entry of the grid slice.
func MaxBenefit(grid [][]int) int {
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

// MeanBenefit returns the mean entry of the grid slice.
func MeanBenefit(grid [][]int) float64 {
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
