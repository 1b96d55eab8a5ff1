package obs

import (
	"sync"
	"time"

	"milan/internal/calypso"
	"milan/internal/core"
	"milan/internal/qos"
)

// eventRingCap is the capacity of the observer's recent-events ring,
// which /trace serves and the flight recorder (slo.Recorder) copies.
const eventRingCap = 4096

// Config configures an Observer.
type Config struct {
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
	// the debug endpoint (see Observer.enablePprof).  Off by default:
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
	ring  *ringSink
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
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		Reg:   reg,
		ring:  newRingSink(eventRingCap),
		start: time.Now(),
	}
	if cfg.Tracing {
		o.tracer = NewTracer(cfg.SpanRingSize)
	}
	if cfg.EnablePprof {
		o.enablePprof()
	}
	return o
}

// Tracer returns the observer's span tracer, or nil when tracing is
// disabled (a nil *Tracer is a valid no-op receiver everywhere).
func (o *Observer) Tracer() *Tracer { return o.tracer }

// SetClock rebinds the observer's timestamp source (e.g. a sim engine's
// Now method) so events carry simulation time instead of wall-clock
// seconds since the observer was created; nil restores the wall clock.
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

// emit stamps the event with the observer's clock (unless it already
// carries a timestamp) and pushes it onto the event ring.
func (o *Observer) emit(ev Event) {
	if ev.Time == 0 {
		ev.Time = o.now()
	}
	o.ring.Emit(ev)
}

// Events returns the retained recent events, oldest first: the one event
// ring, which /trace serves and the flight recorder copies.
func (o *Observer) Events() []Event { return o.ring.events() }

// recent returns at most n of the most recent events, oldest first
// (n <= 0 returns all retained events).
func (o *Observer) recent(n int) []Event {
	evs := o.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Metric names used by the built-in adapters.
const (
	MetricAdmitted     = "sched_admitted"
	MetricRejected     = "sched_rejected"
	metricChainsTried  = "sched_chains_tried"
	metricHolesProbed  = "sched_holes_probed"
	metricPlanFailures = "sched_plan_failures"
	metricReservedArea = "sched_reserved_area"
	metricDecisions    = "qos_decisions"
	metricSimEvents    = "sim_events"
	metricCalypsoSteps = "calypso_steps"
	metricCalypsoExecs = "calypso_execs"
	metricStepNs       = "calypso_step_ns"

	// Profile-index gauges (see core.IndexStats): cumulative segment-tree
	// work counters pulled by RecordPlanner.
	metricIndexRebuilds  = "profile_index_rebuilds"
	metricIndexDescents  = "profile_index_descents"
	metricIndexMeanDepth = "profile_index_mean_descent_depth"
)

// RecordPlanner pulls the planner's work into the registry: the
// sched_chains_tried, sched_holes_probed and sched_plan_failures gauges from
// st, and the profile-index gauges (rebuilds, descents, mean descent depth)
// from ix — the Stats and IndexStats of a core.Scheduler or an arbitrator.
// Call it whenever a fresh reading is wanted: after a run, or periodically
// while serving.  A zero-value (index disabled) ix sets no index gauges.
func (o *Observer) RecordPlanner(st core.Stats, ix core.IndexStats) {
	o.Reg.Gauge(metricChainsTried).Set(float64(st.ChainsTried))
	o.Reg.Gauge(metricHolesProbed).Set(float64(st.HolesProbed))
	o.Reg.Gauge(metricPlanFailures).Set(float64(st.PlanFailures))
	if !ix.Enabled {
		return
	}
	o.Reg.Gauge(metricIndexRebuilds).Set(float64(ix.Rebuilds))
	o.Reg.Gauge(metricIndexDescents).Set(float64(ix.Descents))
	depth := 0.0
	if ix.Descents > 0 {
		depth = float64(ix.DescentSteps) / float64(ix.Descents)
	}
	o.Reg.Gauge(metricIndexMeanDepth).Set(depth)
}

// DecisionObserver is the observer's admission adapter: it wraps a qos
// Decision observer (next may be nil) so that an admission bumps
// qos_decisions, sched_admitted and sched_reserved_area and emits Committed
// (start, finish, area and quality of the grant), and a rejection bumps
// qos_decisions and sched_rejected and emits Rejected{no-feasible-chain} —
// each event carrying the job's trace and span — before the decision is
// forwarded.  A plane's clock and resize decisions pass through uncounted.
// Set it as the Observer of the config an arbitrator is built from — a fed
// plane's (fed.Config.Observer), the reference qos.Arbitrator's, a
// qos.DynamicArbitrator's Observer field; it runs where they call their
// observer, under the arbitrator's or the deciding shard's lock.
func (o *Observer) DecisionObserver(next func(qos.Decision)) func(qos.Decision) {
	decisions := o.Reg.Counter(metricDecisions)
	admitted := o.Reg.Counter(MetricAdmitted)
	rejected := o.Reg.Counter(MetricRejected)
	area := o.Reg.Gauge(metricReservedArea)
	return func(d qos.Decision) {
		switch d.Kind {
		case qos.KindAdmitted:
			pl := &d.Grant.Placement
			decisions.Inc()
			admitted.Inc()
			area.add(pl.Area())
			o.emit(Event{Type: evCommitted, Job: d.Job.ID, Chain: pl.Chain, Trace: d.Job.Trace, Span: d.Job.Span,
				Attrs: map[string]float64{
					"start": pl.Start(), "finish": pl.Finish(), "area": pl.Area(),
					"quality": d.Grant.Quality,
				}})
		case qos.KindRejected:
			decisions.Inc()
			rejected.Inc()
			o.emit(Event{Type: evRejected, Job: d.Job.ID, Reason: "no-feasible-chain", Trace: d.Job.Trace, Span: d.Job.Span})
		}
		if next != nil {
			next(d)
		}
	}
}

// simEventFired is the sim.Engine.OnEvent adapter: it counts and traces
// every fired simulation event.
func (o *Observer) simEventFired(name string, t float64) {
	o.Reg.Counter(metricSimEvents).Inc()
	o.emit(Event{Time: t, Type: evEventFired, Name: name})
}

// BindEngine installs the observer on a sim engine: events are counted and
// traced, and the observer's clock follows the simulation clock.
func (o *Observer) BindEngine(e interface {
	Now() float64
}) func(name string, t float64) {
	o.SetClock(e.Now)
	return o.simEventFired
}

// CalypsoHooks returns runtime trace hooks: steps and faults become events,
// and steps and task executions registry metrics.
func (o *Observer) CalypsoHooks() calypso.TraceHooks {
	steps := o.Reg.Counter(metricCalypsoSteps)
	execs := o.Reg.Counter(metricCalypsoExecs)
	stepNs := o.Reg.Histogram(metricStepNs)
	return calypso.TraceHooks{
		StepStart: func(step, tasks int) {
			steps.Inc()
			o.emit(Event{Type: evStepStart, Attrs: map[string]float64{
				"step": float64(step), "tasks": float64(tasks),
			}})
		},
		StepDone: func(step int, d time.Duration, err error) {
			stepNs.Observe(d)
			ev := Event{Type: evStepDone, Attrs: map[string]float64{
				"step": float64(step), "seconds": d.Seconds(),
			}}
			if err != nil {
				ev.Reason = err.Error()
			}
			o.emit(ev)
		},
		TaskExec: func(int, int, int, int, time.Time, time.Duration, bool) {
			execs.Inc()
		},
		WorkerFault: func(step, worker int, kind string) {
			o.emit(Event{Type: evWorkerFault, Worker: worker, Reason: kind,
				Attrs: map[string]float64{"step": float64(step)}})
		},
	}
}
