package slo

import (
	"strings"
	"testing"
	"time"

	"milan/internal/obs/latency"
)

// fakeCounts stands in for the plane's regression counts: the test moves
// the cumulative counters and ticks the engine on them (tick), so it can
// also make them fall, which the plane's never do.
type fakeCounts struct {
	counts []latency.PhaseCount
}

func (f *fakeCounts) tick(e *Engine, now float64) {
	e.tick(now, e.Latency().TargetCount(), f.counts)
}

func newSentinelEngine() *Engine {
	return New(Options{Recorder: NewRecorder(nil, nil)})
}

func TestRegressionSentinelTripsAndNamesPhase(t *testing.T) {
	src := &fakeCounts{counts: []latency.PhaseCount{
		{Name: "probe", Total: 0, Over: 0},
		{Name: "e2e", Total: 0, Over: 0},
	}}
	e := newSentinelEngine()
	src.tick(e, 0) // primes the cumulative baselines

	// Healthy traffic: lots of admissions, none over envelope.
	src.counts[0] = latency.PhaseCount{Name: "probe", Total: 1000, Over: 0}
	src.counts[1] = latency.PhaseCount{Name: "e2e", Total: 1000, Over: 0}
	src.tick(e, 1)
	if alerts := e.Report().Alerts; len(alerts) != 0 {
		t.Fatalf("healthy plane alerted: %+v", alerts)
	}

	// The probe phase regresses hard: half the next admissions over
	// budget (50x the 1% regression budget).
	src.counts[0] = latency.PhaseCount{Name: "probe", Total: 2000, Over: 500}
	src.counts[1] = latency.PhaseCount{Name: "e2e", Total: 2000, Over: 0}
	src.tick(e, 2)
	alerts := e.Report().Alerts
	if len(alerts) != 1 {
		t.Fatalf("want exactly one regression alert, got %+v", alerts)
	}
	if alerts[0].Objective != objectiveRegressionPrefix+"probe" {
		t.Fatalf("alert names %q, want the probe phase", alerts[0].Objective)
	}
	// The flight recorder cut a snapshot naming the phase.
	snap := e.opts.Recorder.Last()
	if snap == nil || snap.Kind != triggerLatencyRegression {
		t.Fatalf("no latency-regression flight snapshot: %+v", snap)
	}
	if !strings.Contains(snap.Note, "probe") {
		t.Fatalf("snapshot note does not name the phase: %q", snap.Note)
	}

	// Edge-triggered: still burning, no second alert.
	src.counts[0] = latency.PhaseCount{Name: "probe", Total: 2100, Over: 550}
	src.tick(e, 3)
	if got := len(e.Report().Alerts); got != 1 {
		t.Fatalf("alert re-fired while still burning: %d", got)
	}

	// The regression burns are visible in the report.
	var found bool
	for _, b := range e.Report().Regression {
		if b.Objective == objectiveRegressionPrefix+"probe" && b.Alerting {
			found = true
		}
	}
	if !found {
		t.Fatalf("probe regression missing from report: %+v", e.Report().Regression)
	}
}

// Admissions that complete before the ticker's first firing must still
// reach the windows: the baseline starts at zero, it is not primed from
// the first observation (a burst entirely between process start and the
// first tick would otherwise be absorbed and never alert).
func TestRegressionSentinelCountsPreTickTraffic(t *testing.T) {
	src := &fakeCounts{counts: []latency.PhaseCount{
		{Name: "probe", Total: 12, Over: 12},
	}}
	e := newSentinelEngine()
	src.tick(e, 0) // first tick lands after the whole burst completed
	alerts := e.Report().Alerts
	if len(alerts) != 1 || alerts[0].Objective != objectiveRegressionPrefix+"probe" {
		t.Fatalf("pre-tick burst not counted: %+v", alerts)
	}
}

// Counter resets (plane swap, envelope re-arm) must re-baseline, not
// feed a huge negative or bogus delta into the windows.
func TestRegressionSentinelCounterReset(t *testing.T) {
	src := &fakeCounts{counts: []latency.PhaseCount{{Name: "e2e", Total: 5000, Over: 10}}}
	e := newSentinelEngine()
	src.tick(e, 0)
	// Reset: cumulative counters fall.
	src.counts[0] = latency.PhaseCount{Name: "e2e", Total: 100, Over: 90}
	src.tick(e, 1)
	if alerts := e.Report().Alerts; len(alerts) != 0 {
		t.Fatalf("counter reset produced an alert: %+v", alerts)
	}
	// Over > total in a delta is equally bogus.
	src.counts[0] = latency.PhaseCount{Name: "e2e", Total: 101, Over: 99}
	src.tick(e, 2)
	if alerts := e.Report().Alerts; len(alerts) != 0 {
		t.Fatalf("over>total delta produced an alert: %+v", alerts)
	}
}

// Regression objectives ride EngineState: merged cluster windows
// re-alert through Burns even when no single node's engine tripped.
func TestRegressionObjectivesMergeAndRealert(t *testing.T) {
	mkState := func(total, over int64) EngineState {
		src := &fakeCounts{counts: []latency.PhaseCount{{Name: "probe", Total: 0, Over: 0}}}
		e := newSentinelEngine()
		src.tick(e, 0)
		src.counts[0] = latency.PhaseCount{Name: "probe", Total: total, Over: over}
		src.tick(e, 1)
		return e.exportState()
	}
	// Each node alone: 30% over budget on probe — well past threshold
	// individually, but the point is the merged math.
	a := mkState(1000, 300)
	b := mkState(1000, 0)
	merged := MergeStates(a, b)
	var burn *ObjectiveBurn
	for i := range merged.Burns() {
		bb := merged.Burns()[i]
		if bb.Objective == objectiveRegressionPrefix+"probe" {
			burn = &bb
		}
	}
	if burn == nil {
		t.Fatalf("merged state lost the regression objective: %+v", merged.Objectives)
	}
	// Cluster-wide: 300 over / 2000 total = 15% over a 1% budget -> burn
	// 15, alerting at threshold 2.
	if !burn.Alerting || burn.Short < 10 || burn.Short > 20 {
		t.Fatalf("merged regression burn = %+v, want alerting at ~15", burn)
	}
}

// A plane whose envelope was never armed keeps the sentinel disabled.
func TestRegressionSentinelDisabled(t *testing.T) {
	e := New(Options{})
	timed(e, time.Second)
	e.Tick(0)
	e.Tick(1)
	if reg := e.Report().Regression; reg != nil {
		t.Fatalf("disabled sentinel reported burns: %+v", reg)
	}
	for _, o := range e.exportState().Objectives {
		if strings.HasPrefix(o.Name, objectiveRegressionPrefix) {
			t.Fatalf("disabled sentinel exported %q", o.Name)
		}
	}
}
