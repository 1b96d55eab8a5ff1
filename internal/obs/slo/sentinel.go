package slo

// The engine's latency objectives, all fed the same way: each Tick reads
// cumulative (total, over) counts off the engine's latency plane, diffs
// them into the objective's two burn windows and applies the multi-window
// edge-triggered alert rule.
//
//   - admit-latency judges every admission's end-to-end time against
//     latency.Target (the plane's TargetCount).  It is always armed.
//   - latency-regression:<phase> is the online regression sentinel: it
//     judges each phase against the committed baseline envelope armed on
//     the plane (RegressionCounts), and a burn episode cuts a flight
//     recorder snapshot so the tail that regressed is preserved with its
//     spans and decisions.
//
// The engine only sees counts, so the objectives work identically over
// live planes and over merged cluster state (they ride EngineState like
// every other objective and re-alert after MergeStates).

import (
	"fmt"
	"strings"

	"milan/internal/obs/latency"
)

// objectiveRegressionPrefix prefixes the per-phase regression objective
// names ("latency-regression:probe", ..., "latency-regression:e2e").
const objectiveRegressionPrefix = "latency-regression:"

// objective is one latency objective's state: burn windows over its
// over-target fraction, plus the last cumulative counts seen (the plane's
// counts are monotone; the objective consumes deltas).  The baseline
// starts at zero rather than priming on first sight: the plane and its
// engine are created together, so everything the counts hold at the first
// tick is traffic the objective should judge — priming would silently
// absorb admissions that completed before the ticker's first firing.
type objective struct {
	name        string // as exported and alerted
	phase       string // the plane count it reads; "" for admit-latency
	short, long *window
	lastTotal   int64
	lastOver    int64
	seen        bool // armed: any admissions observed at all
	alerting    bool // inside a burn episode
}

func newObjective(name, phase string) *objective {
	return &objective{
		name:  name,
		phase: phase,
		short: newWindow(shortWindow, windowBuckets),
		long:  newWindow(longWindow, windowBuckets),
	}
}

// ingest adds the admissions counted since the last read to the windows
// at now.
func (o *objective) ingest(now float64, c latency.PhaseCount) {
	dTotal, dOver := c.Total-o.lastTotal, c.Over-o.lastOver
	if dTotal < 0 || dOver < 0 || dOver > dTotal {
		// Counts that fell, or more over than timed, are no delta to
		// judge: restart from the new baseline.
		dTotal, dOver = 0, 0
	}
	if dTotal > 0 {
		o.seen = true
		o.short.addN(now, dTotal-dOver, dOver)
		o.long.addN(now, dTotal-dOver, dOver)
	}
	o.lastTotal, o.lastOver = c.Total, c.Over
}

// burns returns the objective's short and long burn rates.
func (o *objective) burns() (short, long float64) {
	return o.short.burn(errorBudget), o.long.burn(errorBudget)
}

// regression returns the objective judging phase, making it on first
// sight.  Caller holds e.mu.
func (e *Engine) regression(phase string) *objective {
	for _, o := range e.objectives {
		if o.phase == phase {
			return o
		}
	}
	o := newObjective(objectiveRegressionPrefix+phase, phase)
	e.objectives = append(e.objectives, o)
	return o
}

// tick feeds target (admit-latency's count) and phases (the regression
// counts) into the objectives at now, runs the alert rule over every armed
// objective, publishes the admit-latency burn gauges and cuts one flight
// snapshot per fired regression alert.
func (e *Engine) tick(now float64, target latency.PhaseCount, phases []latency.PhaseCount) {
	e.mu.Lock()
	e.objectives[0].ingest(now, target)
	for _, c := range phases {
		e.regression(c.Name).ingest(now, c)
	}
	var fired []Alert
	for _, o := range e.objectives {
		o.short.advance(now)
		o.long.advance(now)
		if !o.seen {
			continue
		}
		short, long := o.burns()
		burning := short >= burnThreshold && long >= burnThreshold
		if burning && !o.alerting {
			a := Alert{Objective: o.name, Short: short, Long: long, At: now}
			fired = append(fired, a)
			e.alerts = append(e.alerts, a)
			if len(e.alerts) > maxKept {
				e.alerts = e.alerts[len(e.alerts)-maxKept:]
			}
		}
		o.alerting = burning
	}
	short, long := e.objectives[0].burns()
	e.mu.Unlock()
	e.latBurnShort.Set(clampInf(short))
	e.latBurnLong.Set(clampInf(long))
	for _, a := range fired {
		if phase, ok := strings.CutPrefix(a.Objective, objectiveRegressionPrefix); ok {
			e.opts.Recorder.Trigger(triggerLatencyRegression, 0, now,
				fmt.Sprintf("phase %s latency over baseline envelope: burn short=%.3g long=%.3g", phase, a.Short, a.Long))
		}
	}
}

// regressionBurnsLocked renders the sentinel's current burns (caller
// holds e.mu).
func (e *Engine) regressionBurnsLocked() []ObjectiveBurn {
	var out []ObjectiveBurn
	for _, o := range e.objectives[1:] {
		if !o.seen {
			continue
		}
		short, long := o.burns()
		b := ObjectiveBurn{Objective: o.name, Short: clampInf(short), Long: clampInf(long)}
		b.Alerting = b.Short >= burnThreshold && b.Long >= burnThreshold
		out = append(out, b)
	}
	return out
}
