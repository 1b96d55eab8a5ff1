package obs

import (
	"sync"
	"time"

	"milan/internal/calypso"
	"milan/internal/core"
	"milan/internal/qos"
)

// Config configures an Observer.
type Config struct {
	// RingSize is the capacity of the internal recent-events ring buffer
	// (served by the /trace debug endpoint).  0 means 4096.
	RingSize int
	// Sink, if non-nil, additionally receives every event (e.g. a
	// JSONLSink streaming to disk).
	Sink TraceSink
	// Clock supplies event timestamps.  nil means wall-clock seconds
	// since Observer creation; bind it to a sim engine's Now for
	// simulation timestamps (see SetClock).
	Clock func() float64
	// KeepPlacements retains every committed placement so the /gantt
	// endpoint and WriteChromeTrace can render the schedule.
	KeepPlacements bool
	// Capacity is the machine size used when exporting the schedule as a
	// Chrome trace; 0 infers the peak processor demand of the retained
	// placements.
	Capacity int
	// Registry, if non-nil, is used instead of a fresh one (sharing one
	// registry across several observers).
	Registry *Registry
	// Tracing enables span-propagated request tracing: the observer owns
	// a Tracer (see span.go) whose clock follows the observer's.  Off by
	// default; when off, Tracer() returns nil and every span call no-ops
	// on the nil receiver.
	Tracing bool
	// SpanRingSize is the tracer's completed-span ring capacity (0 means
	// 8192).  Ignored unless Tracing.
	SpanRingSize int
	// EnablePprof mounts the Go runtime profiler under /debug/pprof/ on
	// the debug endpoint (see Observer.EnablePprof).  Off by default:
	// profiling endpoints perturb the hot paths they measure.
	EnablePprof bool
}

// Observer ties the metrics registry and the trace sinks together and
// adapts them to the hook points of the scheduler core, the QoS
// arbitrators, the Calypso runtime and the sim engine.  All methods are
// safe for concurrent use.
type Observer struct {
	// Reg is the observer's metrics registry.
	Reg *Registry

	mu         sync.Mutex
	ring       *RingSink
	sink       TraceSink
	clock      func() float64
	start      time.Time
	keepPl     bool
	placements []*core.Placement
	capacity   int
	spans      []Span
	admitAt    time.Time

	// tracer is non-nil iff Config.Tracing.
	tracer *Tracer

	// Debug-endpoint extensions (http.go / health.go): extra mounted
	// handlers (e.g. the SLO engine's /slo) and the named liveness /
	// readiness checks served by /healthz.
	webMu  sync.Mutex
	extra  map[string]extraRoute
	checks []healthCheck
}

// New returns an Observer with the given configuration.
func New(cfg Config) *Observer {
	if cfg.RingSize == 0 {
		cfg.RingSize = 4096
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		Reg:      reg,
		ring:     NewRingSink(cfg.RingSize),
		sink:     cfg.Sink,
		clock:    cfg.Clock,
		start:    time.Now(),
		keepPl:   cfg.KeepPlacements,
		capacity: cfg.Capacity,
	}
	if cfg.Tracing {
		o.tracer = NewTracer(cfg.SpanRingSize)
		o.tracer.SetClock(cfg.Clock)
	}
	if cfg.EnablePprof {
		o.EnablePprof()
	}
	return o
}

// Tracer returns the observer's span tracer, or nil when tracing is
// disabled (a nil *Tracer is a valid no-op receiver everywhere).
func (o *Observer) Tracer() *Tracer { return o.tracer }

// SetClock rebinds the observer's timestamp source (e.g. a sim engine's
// Now method) so events carry simulation time instead of wall time.
func (o *Observer) SetClock(clock func() float64) {
	o.mu.Lock()
	o.clock = clock
	o.mu.Unlock()
	o.tracer.SetClock(clock) // nil-safe
}

// SetCapacity records the machine size used by the Chrome-trace schedule
// export.
func (o *Observer) SetCapacity(procs int) {
	o.mu.Lock()
	o.capacity = procs
	o.mu.Unlock()
}

// now returns the current timestamp under the configured clock.
func (o *Observer) now() float64 {
	o.mu.Lock()
	clock := o.clock
	o.mu.Unlock()
	if clock != nil {
		return clock()
	}
	return time.Since(o.start).Seconds()
}

// Emit stamps the event with the observer's clock (unless it already
// carries a timestamp) and forwards it to the ring and the extra sink.
func (o *Observer) Emit(ev Event) {
	if ev.Time == 0 {
		ev.Time = o.now()
	}
	o.ring.Emit(ev)
	if o.sink != nil {
		o.sink.Emit(ev)
	}
}

// Events returns the retained recent events, oldest first.
func (o *Observer) Events() []Event { return o.ring.Events() }

// Recent returns at most n of the most recent events, oldest first
// (n <= 0 returns all retained events).
func (o *Observer) Recent(n int) []Event {
	evs := o.ring.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Placements returns the committed placements retained so far (empty
// unless KeepPlacements).
func (o *Observer) Placements() []*core.Placement {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*core.Placement(nil), o.placements...)
}

// Snapshot returns the registry's current state.
func (o *Observer) Snapshot() Snapshot { return o.Reg.Snapshot() }

// Metric names used by the built-in adapters.
const (
	MetricAdmitted      = "sched_admitted"
	MetricRejected      = "sched_rejected"
	MetricChainsTried   = "sched_chains_tried"
	MetricHolesProbed   = "sched_holes_probed"
	MetricTieBreaks     = "sched_tiebreaks"
	MetricPlanFailures  = "sched_plan_failures"
	MetricReservedArea  = "sched_reserved_area"
	MetricAdmitSeconds  = "sched_admit_seconds"
	MetricRenegotiated  = "qos_renegotiated"
	MetricAborted       = "qos_aborted"
	MetricDecisions     = "qos_decisions"
	MetricSimEvents     = "sim_events"
	MetricCalypsoSteps  = "calypso_steps"
	MetricCalypsoExecs  = "calypso_execs"
	MetricCalypsoFaults = "calypso_faults"
	MetricStepSeconds   = "calypso_step_seconds"

	// Profile-index gauges (see core.IndexStats): cumulative segment-tree
	// work counters snapshotted via RecordProfileIndex.
	MetricIndexRebuilds     = "profile_index_rebuilds"
	MetricIndexLeafUpdates  = "profile_index_leaf_updates"
	MetricIndexDescents     = "profile_index_descents"
	MetricIndexDescentSteps = "profile_index_descent_steps"
	MetricIndexRangeQueries = "profile_index_range_queries"
	MetricIndexMeanDepth    = "profile_index_mean_descent_depth"
)

// SchedulerHooks returns core scheduler hooks that translate the admission
// pipeline into trace events and registry metrics.  Install them via
// core.Options.Hooks (or InstrumentOptions).
func (o *Observer) SchedulerHooks() *core.Hooks {
	admitted := o.Reg.Counter(MetricAdmitted)
	rejected := o.Reg.Counter(MetricRejected)
	chains := o.Reg.Counter(MetricChainsTried)
	probes := o.Reg.Counter(MetricHolesProbed)
	ties := o.Reg.Counter(MetricTieBreaks)
	failures := o.Reg.Counter(MetricPlanFailures)
	area := o.Reg.Gauge(MetricReservedArea)
	latency := o.Reg.Histogram(MetricAdmitSeconds, 0, 1e-3, 60)
	return &core.Hooks{
		AdmitStart: func(job *core.Job) {
			o.mu.Lock()
			o.admitAt = time.Now()
			o.mu.Unlock()
			o.Emit(Event{Type: EvAdmitStart, Job: job.ID, Trace: job.Trace, Span: job.Span,
				Attrs: map[string]float64{
					"chains": float64(len(job.Chains)), "release": job.Release,
				}})
		},
		ChainTried: func(job *core.Job, chain int, ok bool, finish float64) {
			chains.Inc()
			ev := Event{Type: EvChainTried, Job: job.ID, Chain: chain, Trace: job.Trace, Span: job.Span}
			if ok {
				ev.Attrs = map[string]float64{"ok": 1, "finish": finish}
			} else {
				ev.Attrs = map[string]float64{"ok": 0}
			}
			o.Emit(ev)
		},
		HolesProbed: func(job *core.Job, chain, n int) {
			probes.Add(int64(n))
			o.Emit(Event{Type: EvHolesProbed, Job: job.ID, Chain: chain, Trace: job.Trace, Span: job.Span,
				Attrs: map[string]float64{"probes": float64(n)}})
		},
		TieBreak: func(job *core.Job, winner, over int) {
			ties.Inc()
			o.Emit(Event{Type: EvTieBreak, Job: job.ID, Chain: winner, Trace: job.Trace, Span: job.Span,
				Attrs: map[string]float64{"over": float64(over)}})
		},
		Committed: func(job *core.Job, pl *core.Placement) {
			admitted.Inc()
			area.Add(pl.Area())
			o.mu.Lock()
			if o.keepPl {
				cp := *pl
				cp.Tasks = append([]core.TaskPlacement(nil), pl.Tasks...)
				o.placements = append(o.placements, &cp)
			}
			began := o.admitAt
			o.mu.Unlock()
			if !began.IsZero() {
				latency.Observe(time.Since(began).Seconds())
			}
			o.Emit(Event{Type: EvCommitted, Job: job.ID, Chain: pl.Chain, Trace: job.Trace, Span: job.Span,
				Attrs: map[string]float64{
					"start": pl.Start(), "finish": pl.Finish(), "area": pl.Area(),
					"quality": job.Chains[pl.Chain].Quality,
				}})
		},
		Rejected: func(job *core.Job, reason string) {
			rejected.Inc()
			o.mu.Lock()
			began := o.admitAt
			o.mu.Unlock()
			if !began.IsZero() {
				latency.Observe(time.Since(began).Seconds())
			}
			o.Emit(Event{Type: EvRejected, Job: job.ID, Reason: reason, Trace: job.Trace, Span: job.Span})
		},
		PlanFailure: func(job *core.Job) {
			failures.Inc()
		},
	}
}

// InstrumentOptions returns a copy of opts (or fresh zero Options when opts
// is nil) with the observer's scheduler hooks installed.
func (o *Observer) InstrumentOptions(opts *core.Options) *core.Options {
	var out core.Options
	if opts != nil {
		out = *opts
	}
	out.Hooks = o.SchedulerHooks()
	return &out
}

// RecordProfileIndex snapshots a profile index's cumulative work counters
// into the registry's gauges (rebuilds, incremental leaf updates, descents,
// nodes visited, range queries, and mean descent depth).  Call it whenever
// a fresh reading is wanted — after a run, or periodically while serving —
// with the counters from core.Scheduler.IndexStats / qos.Arbitrator.
// IndexStats.  A zero-value (index disabled) snapshot is a no-op so call
// sites need not branch.
func (o *Observer) RecordProfileIndex(st core.IndexStats) {
	if !st.Enabled {
		return
	}
	o.Reg.Gauge(MetricIndexRebuilds).Set(float64(st.Rebuilds))
	o.Reg.Gauge(MetricIndexLeafUpdates).Set(float64(st.LeafUpdates))
	o.Reg.Gauge(MetricIndexDescents).Set(float64(st.Descents))
	o.Reg.Gauge(MetricIndexDescentSteps).Set(float64(st.DescentSteps))
	o.Reg.Gauge(MetricIndexRangeQueries).Set(float64(st.RangeQueries))
	depth := 0.0
	if st.Descents > 0 {
		depth = float64(st.DescentSteps) / float64(st.Descents)
	}
	o.Reg.Gauge(MetricIndexMeanDepth).Set(depth)
}

// DecisionObserver wraps a qos Decision observer (next may be nil): every
// decision bumps the decision counter before forwarding.  The per-decision
// Committed/Rejected events come from the scheduler hooks; this wrapper
// observes the arbitrator-level stream.
func (o *Observer) DecisionObserver(next func(qos.Decision)) func(qos.Decision) {
	decisions := o.Reg.Counter(MetricDecisions)
	return func(d qos.Decision) {
		decisions.Inc()
		if next != nil {
			next(d)
		}
	}
}

// InstrumentArbitratorConfig returns a copy of cfg with the observer's
// scheduler hooks installed and its Decision stream wrapped.
func (o *Observer) InstrumentArbitratorConfig(cfg qos.ArbitratorConfig) qos.ArbitratorConfig {
	cfg.Options = o.InstrumentOptions(cfg.Options)
	cfg.Observer = o.DecisionObserver(cfg.Observer)
	return cfg
}

// InstrumentDynamic wraps a dynamic arbitrator's callback stream: placement
// moves emit Renegotiated events, evictions emit Aborted events and every
// admission decision bumps the decision counter.  Existing callbacks are
// chained, not replaced.  Call it before the arbitrator starts serving;
// note the scheduler hooks themselves must be installed via the Options
// passed to qos.NewDynamicArbitrator (see InstrumentOptions).
func (o *Observer) InstrumentDynamic(d *qos.DynamicArbitrator) {
	renegotiated := o.Reg.Counter(MetricRenegotiated)
	aborted := o.Reg.Counter(MetricAborted)
	prevR, prevA, prevObs := d.OnRenegotiated, d.OnAborted, d.Observer
	d.OnRenegotiated = func(jobID int, g *qos.Grant) {
		renegotiated.Inc()
		o.Emit(Event{Type: EvRenegotiated, Job: jobID, Chain: g.Chain, Attrs: map[string]float64{
			"finish": g.Finish(),
		}})
		if prevR != nil {
			prevR(jobID, g)
		}
	}
	d.OnAborted = func(jobID int) {
		aborted.Inc()
		o.Emit(Event{Type: EvAborted, Job: jobID, Reason: "capacity-change"})
		if prevA != nil {
			prevA(jobID)
		}
	}
	d.Observer = o.DecisionObserver(prevObs)
}

// SimEventFired is the sim.Engine.OnEvent adapter: it counts and traces
// every fired simulation event.
func (o *Observer) SimEventFired(name string, t float64) {
	o.Reg.Counter(MetricSimEvents).Inc()
	o.Emit(Event{Time: t, Type: EvEventFired, Name: name})
}

// BindEngine installs the observer on a sim engine: events are counted and
// traced, and the observer's clock follows the simulation clock.
func (o *Observer) BindEngine(e interface {
	Now() float64
}) func(name string, t float64) {
	o.SetClock(e.Now)
	return o.SimEventFired
}

// CalypsoHooks returns runtime trace hooks: steps and task executions
// become events, spans (for the Chrome-trace worker timeline) and
// registry metrics.
func (o *Observer) CalypsoHooks() calypso.TraceHooks {
	steps := o.Reg.Counter(MetricCalypsoSteps)
	execs := o.Reg.Counter(MetricCalypsoExecs)
	faults := o.Reg.Counter(MetricCalypsoFaults)
	stepSec := o.Reg.Histogram(MetricStepSeconds, 0, 1, 100)
	return calypso.TraceHooks{
		StepStart: func(step, tasks int) {
			steps.Inc()
			o.Emit(Event{Type: EvStepStart, Attrs: map[string]float64{
				"step": float64(step), "tasks": float64(tasks),
			}})
		},
		StepDone: func(step int, d time.Duration, err error) {
			stepSec.Observe(d.Seconds())
			ev := Event{Type: EvStepDone, Attrs: map[string]float64{
				"step": float64(step), "seconds": d.Seconds(),
			}}
			if err != nil {
				ev.Reason = err.Error()
			}
			o.Emit(ev)
		},
		TaskExec: func(step, worker, task, attempt int, start time.Time, d time.Duration, committed bool) {
			execs.Inc()
			won := 0.0
			if committed {
				won = 1
			}
			o.AddSpan(Span{
				PID:   PIDCalypso,
				TID:   worker,
				Name:  "task",
				Cat:   "calypso",
				Start: start.Sub(o.start).Seconds(),
				Dur:   d.Seconds(),
				Args: map[string]float64{
					"step": float64(step), "task": float64(task),
					"attempt": float64(attempt), "committed": won,
				},
			})
		},
		WorkerFault: func(step, worker int, kind string) {
			faults.Inc()
			o.Emit(Event{Type: EvWorkerFault, Worker: worker, Reason: kind,
				Attrs: map[string]float64{"step": float64(step)}})
		},
	}
}
