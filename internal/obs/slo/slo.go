// Package slo is the predictability auditor: it continuously verifies the
// paper's central promise — every admitted configuration carries a
// reservation that guarantees its deadline (Sections 3, 5.2) — against
// what the runtime actually does.
//
// Three pieces:
//
//   - Engine (this file): streaming SLO accounting.  Deadline conformance
//     is a hard invariant (error budget zero — any admitted job finishing
//     past its deadline is a violation); admission latency is a soft
//     objective tracked with multi-window burn rates in the SRE style
//     (alert when both the short and the long window burn their error
//     budget faster than a threshold).  The engine owns the latency plane
//     that times admissions (Latency), and judges that plane's counts
//     (sentinel.go) rather than timing anything itself.
//   - Recorder (recorder.go): an anomaly-triggered flight recorder that
//     copies the tracer's span ring and the observer's event ring into
//     a self-contained JSONL snapshot on deadline misses and
//     over-admissions (and, from the callers that detect them, fairness,
//     capacity and masking breaches).
//   - Replay (replay.go): differential replay of a snapshot that
//     localizes the violation to planner, runtime, shedder or capacity.
//
// All timestamps are in the caller's clock domain (simulation seconds in
// the experiment loop, wall seconds since start in a live server).
// Admission latencies are the wall-clock durations the plane timed; each
// Tick moves what the plane counted since the last one into the bucket of
// the Tick's instant.  The engine tolerates the clock restarting at zero —
// a new sweep point — by resetting its windows.
package slo

import (
	"fmt"
	"io"
	"math"
	"sync"

	"milan/internal/obs"
	"milan/internal/obs/latency"
)

// Metric names published to the registry.
const (
	metricAdmitted         = "slo_admitted"
	metricRejected         = "slo_rejected"
	metricCompleted        = "slo_completed"
	metricDeadlineMisses   = "slo_deadline_misses"
	metricOverAdmissions   = "slo_over_admissions"
	metricLatencyBurnShort = "slo_latency_burn_short"
	metricLatencyBurnLong  = "slo_latency_burn_long"
)

// eps is the deadline-comparison tolerance, matching the scheduler's
// epsilon discipline: a finish within eps of the deadline conforms.
const eps = 1e-9

// The engine's objectives and windows.
const (
	// shortWindow and longWindow are the two burn-rate windows, in the
	// engine's clock domain; windowBuckets is the sliding-window
	// resolution of each.
	shortWindow   = 60.0
	longWindow    = 600.0
	windowBuckets = 30

	// errorBudget is every latency objective's tolerated fraction of
	// admissions over its target: latency.Target for admit-latency, the
	// phase's envelope for a regression objective.
	errorBudget = 0.01

	// burnThreshold is the burn-rate multiple that, sustained on both
	// windows, raises an alert: burning the error budget at twice the
	// sustainable rate.
	burnThreshold = 2
)

// Options configures an Engine.  The zero value selects the documented
// defaults.
type Options struct {
	// Registry receives the slo_* metrics and the engine's latency plane's
	// latency_* histograms; nil creates a private one.
	Registry *obs.Registry
	// Recorder, if set, is triggered on violations and anomalies.
	Recorder *Recorder
}

func (o Options) withDefaults() Options {
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// window is a bucketed sliding window of good/bad counts.  Time may jump
// arbitrarily forward (buckets expire) or backward (the whole window
// resets — a fresh sweep epoch).
type window struct {
	span   float64
	bspan  float64
	good   []int64
	bad    []int64
	cur    int
	curEnd float64
	primed bool
}

func newWindow(span float64, n int) *window {
	return &window{span: span, bspan: span / float64(n), good: make([]int64, n), bad: make([]int64, n)}
}

func (w *window) reset(now float64) {
	for i := range w.good {
		w.good[i], w.bad[i] = 0, 0
	}
	w.cur = 0
	w.curEnd = now + w.bspan
	w.primed = true
}

// advance rotates the window to cover now.
func (w *window) advance(now float64) {
	if !w.primed || now < w.curEnd-w.bspan-eps {
		w.reset(now)
		return
	}
	if now-w.curEnd >= w.span {
		w.reset(now)
		return
	}
	for now >= w.curEnd {
		w.cur = (w.cur + 1) % len(w.good)
		w.good[w.cur], w.bad[w.cur] = 0, 0
		w.curEnd += w.bspan
	}
}

// addN adds good/bad counts into the bucket covering now.
func (w *window) addN(now float64, good, bad int64) {
	w.advance(now)
	w.good[w.cur] += good
	w.bad[w.cur] += bad
}

func (w *window) totals() (bad, total int64) {
	for i := range w.good {
		bad += w.bad[i]
		total += w.good[i] + w.bad[i]
	}
	return bad, total
}

// burn returns the window's burn rate: observed error rate over the error
// budget.  No observations means zero; a zero budget with any error is
// +Inf (hard invariant).
func (w *window) burn(budget float64) float64 {
	bad, total := w.totals()
	if total == 0 {
		return 0
	}
	rate := float64(bad) / float64(total)
	if budget <= 0 {
		if bad > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return rate / budget
}

// flight is one admitted job awaiting completion.
type flight struct {
	trace          uint64
	deadline       float64
	reservedFinish float64
}

// Violation is one hard SLO violation: an admitted job that finished past
// its deadline (kind "deadline-miss") or was admitted with a reservation
// already past its deadline (kind "over-admission").
type Violation struct {
	Kind           string  `json:"kind"`
	JobID          int     `json:"job"`
	Trace          uint64  `json:"trace,omitempty"`
	Deadline       float64 `json:"deadline"`
	ReservedFinish float64 `json:"reserved_finish"`
	Finish         float64 `json:"finish,omitempty"`
	At             float64 `json:"at"`
}

// Alert is one burn-rate alert: both windows of an objective burned the
// error budget faster than the threshold.
type Alert struct {
	Objective string  `json:"objective"`
	Short     float64 `json:"short_burn"`
	Long      float64 `json:"long_burn"`
	At        float64 `json:"at"`
}

const maxKept = 64 // violations and alerts retained for the report

// Engine is the streaming SLO engine.  All methods are safe for
// concurrent use; a nil *Engine is a valid receiver everywhere (no-op),
// so call sites need no branching.
type Engine struct {
	opts Options
	lat  *latency.Plane

	mu         sync.Mutex
	inflight   map[int]flight
	violations []Violation
	alerts     []Alert
	// objectives are the latency objectives Tick feeds from the plane:
	// admit-latency first, then one per regression phase in order of
	// first sight (sentinel.go).
	objectives []*objective

	admitted       *obs.Counter
	rejected       *obs.Counter
	completed      *obs.Counter
	misses         *obs.Counter
	overAdmissions *obs.Counter
	latBurnShort   *obs.Gauge
	latBurnLong    *obs.Gauge
}

// New returns an engine with the given options, and the latency plane it
// judges admission latency from (Latency), on the same registry.
func New(opts Options) *Engine {
	o := opts.withDefaults()
	reg := o.Registry
	admit := newObjective(objectiveLatency, "")
	admit.seen = true // always armed
	return &Engine{
		opts:           o,
		lat:            latency.New(reg),
		inflight:       make(map[int]flight),
		objectives:     []*objective{admit},
		admitted:       reg.Counter(metricAdmitted),
		rejected:       reg.Counter(metricRejected),
		completed:      reg.Counter(metricCompleted),
		misses:         reg.Counter(metricDeadlineMisses),
		overAdmissions: reg.Counter(metricOverAdmissions),
		latBurnShort:   reg.Gauge(metricLatencyBurnShort),
		latBurnLong:    reg.Gauge(metricLatencyBurnLong),
	}
}

// Latency returns the plane that times the admissions this engine
// judges: a caller hands each admission's phase record to it (phase.Start
// or qosnet.Instruments.Latency), and Tick reads its counts.  Nil engine:
// nil.
func (e *Engine) Latency() *latency.Plane {
	if e == nil {
		return nil
	}
	return e.lat
}

// JobAdmitted records an admission decision: the job enters the in-flight
// set awaiting JobCompleted.  deadline is the granted chain's final task
// deadline; reservedFinish is the reservation's completion time.  A
// reservation already past the deadline is an over-admission — an
// immediate hard violation (the planner emitted an infeasible grant).
func (e *Engine) JobAdmitted(jobID int, trace uint64, now float64, deadline, reservedFinish float64) {
	if e == nil {
		return
	}
	e.admitted.Inc()
	e.mu.Lock()
	e.inflight[jobID] = flight{trace: trace, deadline: deadline, reservedFinish: reservedFinish}
	var over bool
	if reservedFinish > deadline+eps {
		over = true
		e.keepViolation(Violation{
			Kind: "over-admission", JobID: jobID, Trace: trace,
			Deadline: deadline, ReservedFinish: reservedFinish, At: now,
		})
	}
	e.mu.Unlock()
	if over {
		e.overAdmissions.Inc()
		e.opts.Recorder.Trigger(TriggerOverAdmission, trace, now,
			fmt.Sprintf("job %d reserved finish %.6g past deadline %.6g", jobID, reservedFinish, deadline))
	}
}

// JobRejected records a rejection: a rejection is a correct answer, not
// an SLO violation, so only the count moves.
func (e *Engine) JobRejected() {
	if e == nil {
		return
	}
	e.rejected.Inc()
}

// JobCompleted closes out an admitted job at its actual completion time
// and reports whether the completion missed the deadline — the hard
// invariant: admitted implies met.  A miss triggers the flight recorder.
// Completions for unknown jobs are ignored (already completed, or
// admitted before the engine attached).
func (e *Engine) JobCompleted(jobID int, now float64) (missed bool) {
	if e == nil {
		return false
	}
	e.mu.Lock()
	fl, ok := e.inflight[jobID]
	if !ok {
		e.mu.Unlock()
		return false
	}
	delete(e.inflight, jobID)
	missed = now > fl.deadline+eps
	if missed {
		e.keepViolation(Violation{
			Kind: "deadline-miss", JobID: jobID, Trace: fl.trace,
			Deadline: fl.deadline, ReservedFinish: fl.reservedFinish,
			Finish: now, At: now,
		})
	}
	e.mu.Unlock()
	e.completed.Inc()
	if missed {
		e.misses.Inc()
		e.opts.Recorder.Trigger(TriggerDeadlineMiss, fl.trace, now,
			fmt.Sprintf("job %d finished %.6g past deadline %.6g (reserved %.6g)", jobID, now, fl.deadline, fl.reservedFinish))
	}
	return missed
}

// Tick moves what the latency plane counted since the last Tick into the
// objectives' windows at now, publishes the admit-latency burn gauges and
// raises multi-window alerts (edge-triggered: one alert per budget-burn
// episode per objective).
func (e *Engine) Tick(now float64) {
	if e == nil {
		return
	}
	e.tick(now, e.lat.TargetCount(), e.lat.RegressionCounts())
}

// clampInf maps +Inf burn (zero-budget objectives) to a large sentinel so
// the gauges stay JSON-serializable.
func clampInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e9
	}
	return v
}

// keepViolation appends under e.mu, bounded.
func (e *Engine) keepViolation(v Violation) {
	e.violations = append(e.violations, v)
	if len(e.violations) > maxKept {
		e.violations = e.violations[len(e.violations)-maxKept:]
	}
}

// Report is a point-in-time conformance summary.
type Report struct {
	Admitted       int64       `json:"admitted"`
	Rejected       int64       `json:"rejected"`
	Completed      int64       `json:"completed"`
	InFlight       int         `json:"in_flight"`
	DeadlineMisses int64       `json:"deadline_misses"`
	OverAdmissions int64       `json:"over_admissions"`
	Violations     []Violation `json:"violations,omitempty"`
	Alerts         []Alert     `json:"alerts,omitempty"`

	// The latency fields are in seconds.
	LatencyTarget float64 `json:"latency_target"`
	LatencyP50    float64 `json:"latency_p50"`
	LatencyP99    float64 `json:"latency_p99"`
	LatencyMean   float64 `json:"latency_mean"`

	LatencyBurnShort float64 `json:"latency_burn_short"`
	LatencyBurnLong  float64 `json:"latency_burn_long"`

	// Regression is the latency-regression sentinel's current per-phase
	// burns (empty while the plane's envelope is disarmed or no
	// admissions have been timed).
	Regression []ObjectiveBurn `json:"regression,omitempty"`

	Snapshots int `json:"flight_snapshots"`
}

// Conformant reports the hard invariant: no deadline misses and no
// over-admissions.
func (r Report) Conformant() bool { return r.DeadlineMisses == 0 && r.OverAdmissions == 0 }

// Report assembles the current conformance summary.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	hist := e.lat.Admissions()
	e.mu.Lock()
	short, long := e.objectives[0].burns()
	r := Report{
		InFlight:         len(e.inflight),
		Violations:       append([]Violation(nil), e.violations...),
		Alerts:           append([]Alert(nil), e.alerts...),
		LatencyBurnShort: clampInf(short),
		LatencyBurnLong:  clampInf(long),
	}
	r.Regression = e.regressionBurnsLocked()
	e.mu.Unlock()
	r.Admitted = e.admitted.Value()
	r.Rejected = e.rejected.Value()
	r.Completed = e.completed.Value()
	r.DeadlineMisses = e.misses.Value()
	r.OverAdmissions = e.overAdmissions.Value()
	r.LatencyTarget = latency.Target.Seconds()
	r.LatencyP50 = hist.Quantile(0.50) / 1e9
	r.LatencyP99 = hist.Quantile(0.99) / 1e9
	r.LatencyMean = hist.Mean() / 1e9
	if rec := e.opts.Recorder; rec != nil {
		r.Snapshots = rec.Len()
	}
	return r
}

// WriteReport renders the conformance report as a text table (the
// tunesim -slo end-of-run output).
func (e *Engine) WriteReport(w io.Writer) error {
	r := e.Report()
	verdict := "CONFORMANT (admitted => met)"
	if !r.Conformant() {
		verdict = "VIOLATED"
	}
	if _, err := fmt.Fprintf(w, "SLO conformance: %s\n", verdict); err != nil {
		return err
	}
	fmt.Fprintf(w, "  admitted=%d rejected=%d completed=%d in-flight=%d\n",
		r.Admitted, r.Rejected, r.Completed, r.InFlight)
	fmt.Fprintf(w, "  deadline misses=%d over-admissions=%d flight snapshots=%d\n",
		r.DeadlineMisses, r.OverAdmissions, r.Snapshots)
	fmt.Fprintf(w, "  admit latency: p50=%.3gms p99=%.3gms mean=%.3gms (target %.3gms)\n",
		r.LatencyP50*1e3, r.LatencyP99*1e3, r.LatencyMean*1e3, r.LatencyTarget*1e3)
	fmt.Fprintf(w, "  burn rates: latency short=%.3g long=%.3g\n", r.LatencyBurnShort, r.LatencyBurnLong)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  violation: %s job=%d trace=%d deadline=%.6g reserved=%.6g finish=%.6g\n",
			v.Kind, v.JobID, v.Trace, v.Deadline, v.ReservedFinish, v.Finish)
	}
	for _, a := range r.Alerts {
		fmt.Fprintf(w, "  alert: %s short=%.3g long=%.3g at=%.6g\n", a.Objective, a.Short, a.Long, a.At)
	}
	return nil
}
