package slo

// The online latency-regression sentinel: each Tick pulls the latency
// plane's cumulative per-phase envelope counters (admissions timed /
// admissions over the committed baseline envelope), diffs them into the
// engine's multi-window burn machinery, and edge-triggers one
// "latency-regression:<phase>" alert per burn episode — cutting a flight
// recorder snapshot so the tail that regressed is preserved with its
// spans and decisions.
//
// The envelope itself (per-phase nanosecond budgets derived from the
// committed benchmark trajectory) lives on the latency.Plane; the engine
// only sees counts, so the sentinel works identically over live planes
// and over merged cluster state (the exported objectives ride
// EngineState like every other objective and re-alert after MergeStates).

import (
	"fmt"
	"strings"

	"milan/internal/obs/latency"
)

// objectiveRegressionPrefix prefixes the per-phase regression objective
// names ("latency-regression:probe", ..., "latency-regression:e2e").
const objectiveRegressionPrefix = "latency-regression:"

// regState is one phase's sentinel state: burn windows over the phase's
// over-envelope fraction, plus the last cumulative counters seen (the
// plane's counters are monotone; the sentinel consumes deltas).  The
// baseline starts at zero rather than priming on first sight: the plane
// and its engine are created together, so everything the counters hold
// at the first tick is traffic this sentinel should judge — priming
// would silently absorb admissions that completed before the ticker's
// first firing.
type regState struct {
	short, long *window
	lastTotal   int64
	lastOver    int64
	seen        bool // any admissions observed at all
}

// advanceRegressionLocked pulls the regression source, feeds the deltas
// into the per-phase windows and runs the engine's multi-window
// edge-triggered alert rule.  Caller holds e.mu.  Returns the alerts
// fired this tick (already appended to e.alerts and *fired).
func (e *Engine) advanceRegressionLocked(now float64, fired *[]Alert) []Alert {
	src := e.opts.RegressionSource
	if src == nil {
		return nil
	}
	counts := src()
	var out []Alert
	for _, c := range counts {
		st, ok := e.reg[c.Name]
		if !ok {
			st = &regState{
				short: newWindow(shortWindow, windowBuckets),
				long:  newWindow(longWindow, windowBuckets),
			}
			e.reg[c.Name] = st
			e.regOrder = append(e.regOrder, c.Name)
		}
		dTotal, dOver := c.Total-st.lastTotal, c.Over-st.lastOver
		if dTotal < 0 || dOver < 0 || dOver > dTotal {
			// Counter reset (plane swapped or envelope re-armed):
			// restart from the new baseline.
			dTotal, dOver = 0, 0
		}
		if dTotal > 0 {
			st.seen = true
			st.short.addN(now, dTotal-dOver, dOver)
			st.long.addN(now, dTotal-dOver, dOver)
		}
		st.lastTotal, st.lastOver = c.Total, c.Over
	}
	for _, name := range e.regOrder {
		st := e.reg[name]
		st.short.advance(now)
		st.long.advance(now)
		if !st.seen {
			continue
		}
		objective := objectiveRegressionPrefix + name
		short := st.short.burn(regressionBudget)
		long := st.long.burn(regressionBudget)
		burning := short >= burnThreshold && long >= burnThreshold
		if burning && !e.alertOn[objective] {
			e.alertOn[objective] = true
			a := Alert{Objective: objective, Short: short, Long: long, At: now}
			*fired = append(*fired, a)
			out = append(out, a)
			e.alerts = append(e.alerts, a)
			if len(e.alerts) > maxKept {
				e.alerts = e.alerts[len(e.alerts)-maxKept:]
			}
		} else if !burning {
			e.alertOn[objective] = false
		}
	}
	return out
}

// triggerRegressions cuts one flight-recorder snapshot per fired
// regression alert (outside e.mu).
func (e *Engine) triggerRegressions(now float64, alerts []Alert) {
	for _, a := range alerts {
		phase := strings.TrimPrefix(a.Objective, objectiveRegressionPrefix)
		e.opts.Recorder.Trigger(triggerLatencyRegression, 0, now,
			fmt.Sprintf("phase %s latency over baseline envelope: burn short=%.3g long=%.3g", phase, a.Short, a.Long))
	}
}

// regressionBurnsLocked renders the sentinel's current burns (caller
// holds e.mu).
func (e *Engine) regressionBurnsLocked() []ObjectiveBurn {
	var out []ObjectiveBurn
	for _, name := range e.regOrder {
		st := e.reg[name]
		if !st.seen {
			continue
		}
		b := ObjectiveBurn{
			Objective: objectiveRegressionPrefix + name,
			Short:     clampInf(st.short.burn(regressionBudget)),
			Long:      clampInf(st.long.burn(regressionBudget)),
		}
		b.Alerting = b.Short >= burnThreshold && b.Long >= burnThreshold
		out = append(out, b)
	}
	return out
}

// interface check: the latency plane's RegressionCounts is the intended
// RegressionSource.
var _ func() []latency.PhaseCount = (*latency.Plane)(nil).RegressionCounts
