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
	// Sink, if non-nil, additionally receives every event (the flight
	// recorder, slo.Recorder).
	Sink TraceSink
	// Clock supplies event timestamps.  nil means wall-clock seconds
	// since Observer creation; bind it to a sim engine's Now for
	// simulation timestamps (see SetClock).
	Clock func() float64
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
// adapts them to the feeds of the admission planes (the qos.Decision
// observer), the Calypso runtime and the sim engine.  All methods are safe
// for concurrent use.
type Observer struct {
	// Reg is the observer's metrics registry.
	Reg *Registry

	mu    sync.Mutex
	ring  *RingSink
	sink  TraceSink
	clock func() float64
	start time.Time

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
		Reg:   reg,
		ring:  NewRingSink(cfg.RingSize),
		sink:  cfg.Sink,
		clock: cfg.Clock,
		start: time.Now(),
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

// Snapshot returns the registry's current state.
func (o *Observer) Snapshot() Snapshot { return o.Reg.Snapshot() }

// Metric names used by the built-in adapters.
const (
	MetricAdmitted      = "sched_admitted"
	MetricRejected      = "sched_rejected"
	MetricChainsTried   = "sched_chains_tried"
	MetricHolesProbed   = "sched_holes_probed"
	MetricPlanFailures  = "sched_plan_failures"
	MetricReservedArea  = "sched_reserved_area"
	MetricRenegotiated  = "qos_renegotiated"
	MetricAborted       = "qos_aborted"
	MetricDecisions     = "qos_decisions"
	MetricSimEvents     = "sim_events"
	MetricCalypsoSteps  = "calypso_steps"
	MetricCalypsoExecs  = "calypso_execs"
	MetricCalypsoFaults = "calypso_faults"
	MetricStepSeconds   = "calypso_step_seconds"

	// Profile-index gauges (see core.IndexStats): cumulative segment-tree
	// work counters pulled by RecordPlanner.
	MetricIndexRebuilds     = "profile_index_rebuilds"
	MetricIndexLeafUpdates  = "profile_index_leaf_updates"
	MetricIndexDescents     = "profile_index_descents"
	MetricIndexDescentSteps = "profile_index_descent_steps"
	MetricIndexRangeQueries = "profile_index_range_queries"
	MetricIndexMeanDepth    = "profile_index_mean_descent_depth"
)

// RecordPlanner pulls the planner's work into the registry: the
// sched_chains_tried, sched_holes_probed and sched_plan_failures gauges from
// st, and the profile-index gauges (rebuilds, incremental leaf updates,
// descents, nodes visited, range queries, mean descent depth) from ix — the
// Stats and IndexStats of a core.Scheduler or an arbitrator.
// Call it whenever a fresh reading is wanted: after a run, or periodically
// while serving.  A zero-value (index disabled) ix sets no index gauges.
func (o *Observer) RecordPlanner(st core.Stats, ix core.IndexStats) {
	o.Reg.Gauge(MetricChainsTried).Set(float64(st.ChainsTried))
	o.Reg.Gauge(MetricHolesProbed).Set(float64(st.HolesProbed))
	o.Reg.Gauge(MetricPlanFailures).Set(float64(st.PlanFailures))
	if !ix.Enabled {
		return
	}
	o.Reg.Gauge(MetricIndexRebuilds).Set(float64(ix.Rebuilds))
	o.Reg.Gauge(MetricIndexLeafUpdates).Set(float64(ix.LeafUpdates))
	o.Reg.Gauge(MetricIndexDescents).Set(float64(ix.Descents))
	o.Reg.Gauge(MetricIndexDescentSteps).Set(float64(ix.DescentSteps))
	o.Reg.Gauge(MetricIndexRangeQueries).Set(float64(ix.RangeQueries))
	depth := 0.0
	if ix.Descents > 0 {
		depth = float64(ix.DescentSteps) / float64(ix.Descents)
	}
	o.Reg.Gauge(MetricIndexMeanDepth).Set(depth)
}

// DecisionObserver is the observer's admission adapter: it wraps a qos
// Decision observer (next may be nil) so that an admission bumps
// qos_decisions, sched_admitted and sched_reserved_area and emits Committed
// (start, finish, area and quality of the grant), and a rejection bumps
// qos_decisions and sched_rejected and emits Rejected{no-feasible-chain} —
// each event carrying the job's trace and span — before the decision is
// forwarded.  A plane's clock and resize decisions pass through uncounted.
// Set it as the Observer of the config an arbitrator is built from — a fed
// plane's (fed.Config.Observer), the reference qos.Arbitrator's — or let
// InstrumentDynamic install it; it runs where they call their observer,
// under the arbitrator's or the deciding shard's lock.
func (o *Observer) DecisionObserver(next func(qos.Decision)) func(qos.Decision) {
	decisions := o.Reg.Counter(MetricDecisions)
	admitted := o.Reg.Counter(MetricAdmitted)
	rejected := o.Reg.Counter(MetricRejected)
	area := o.Reg.Gauge(MetricReservedArea)
	return func(d qos.Decision) {
		switch d.Kind {
		case qos.KindAdmitted:
			pl := &d.Grant.Placement
			decisions.Inc()
			admitted.Inc()
			area.Add(pl.Area())
			o.Emit(Event{Type: EvCommitted, Job: d.Job.ID, Chain: pl.Chain, Trace: d.Job.Trace, Span: d.Job.Span,
				Attrs: map[string]float64{
					"start": pl.Start(), "finish": pl.Finish(), "area": pl.Area(),
					"quality": d.Grant.Quality,
				}})
		case qos.KindRejected:
			decisions.Inc()
			rejected.Inc()
			o.Emit(Event{Type: EvRejected, Job: d.Job.ID, Reason: "no-feasible-chain", Trace: d.Job.Trace, Span: d.Job.Span})
		}
		if next != nil {
			next(d)
		}
	}
}

// InstrumentDynamic wraps a dynamic arbitrator's callback stream: placement
// moves emit Renegotiated events, evictions emit Aborted events and every
// admission decision goes through DecisionObserver.  Existing callbacks are
// chained, not replaced.  Call it before the arbitrator starts serving.
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

// CalypsoHooks returns runtime trace hooks: steps and faults become events,
// and steps, task executions and faults registry metrics.
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
		TaskExec: func(int, int, int, int, time.Time, time.Duration, bool) {
			execs.Inc()
		},
		WorkerFault: func(step, worker int, kind string) {
			faults.Inc()
			o.Emit(Event{Type: EvWorkerFault, Worker: worker, Reason: kind,
				Attrs: map[string]float64{"step": float64(step)}})
		},
	}
}
