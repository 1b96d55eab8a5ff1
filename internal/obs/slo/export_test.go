package slo

import (
	"math"
	"testing"
	"time"
)

// exportState must reflect the engine's cumulative decision counters and
// carry the raw burn-window totals for the latency objective.
func TestExportStateCarriesWindowTotals(t *testing.T) {
	e := New(Options{})
	// Three decisions: two within the 5 ms latency target, one breaching
	// it, counted into the windows by the Tick after them.
	timed(e, time.Millisecond)
	e.JobAdmitted(1, 0, 0, 100, 50)
	timed(e, 9*time.Millisecond)
	e.JobAdmitted(2, 0, 0, 100, 50)
	timed(e, time.Millisecond)
	e.JobRejected()
	e.JobCompleted(1, 10)
	e.Tick(0)

	st := e.exportState()
	if st.Admitted != 2 || st.Rejected != 1 || st.Completed != 1 {
		t.Fatalf("counters = %+v", st)
	}
	var lat *ObjectiveState
	for i := range st.Objectives {
		if st.Objectives[i].Name == objectiveLatency {
			lat = &st.Objectives[i]
		}
	}
	if lat == nil || !lat.Active {
		t.Fatalf("no active latency objective in %+v", st.Objectives)
	}
	if lat.ShortTotal != 3 || lat.ShortBad != 1 {
		t.Fatalf("latency window = %d bad / %d total, want 1/3", lat.ShortBad, lat.ShortTotal)
	}
	if ex := (*Engine)(nil).exportState(); ex.Admitted != 0 || len(ex.Objectives) != 0 {
		t.Fatalf("nil engine exported %+v", ex)
	}
}

// MergeStates must add counters and window totals across nodes — and the
// merged burn must equal (Σ bad)/(Σ total)/budget, which differs from any
// average of per-node burns (the reason raw totals ride the wire).
func TestMergeStatesAndRecomputedBurns(t *testing.T) {
	a := EngineState{
		Admitted: 10, Rejected: 2, BurnThreshold: 2,
		Objectives: []ObjectiveState{
			{Name: objectiveLatency, Budget: 0.1, Active: true, ShortBad: 9, ShortTotal: 10, LongBad: 9, LongTotal: 10},
		},
	}
	b := EngineState{
		Admitted: 30, Rejected: 1,
		Objectives: []ObjectiveState{
			{Name: objectiveLatency, Budget: 0.1, Active: true, ShortBad: 0, ShortTotal: 90, LongBad: 0, LongTotal: 90},
			{Name: objectiveRegressionPrefix + "probe", Budget: 0.2, Active: false, ShortBad: 5, ShortTotal: 10},
		},
	}
	m := MergeStates(a, b)
	if m.Admitted != 40 || m.Rejected != 3 || m.BurnThreshold != 2 {
		t.Fatalf("merged counters = %+v", m)
	}
	if len(m.Objectives) != 2 {
		t.Fatalf("objectives = %+v", m.Objectives)
	}
	lat := m.Objectives[0]
	if lat.ShortBad != 9 || lat.ShortTotal != 100 {
		t.Fatalf("merged latency window = %d/%d, want 9/100", lat.ShortBad, lat.ShortTotal)
	}

	burns := m.Burns()
	if len(burns) != 1 {
		t.Fatalf("burns = %+v (inactive objectives must not alert)", burns)
	}
	// Merged burn: (9/100)/0.1 = 0.9 — below threshold, NOT alerting,
	// even though node a alone burns at (9/10)/0.1 = 9x.  Averaging
	// per-node burns would have alerted; merged totals must not.
	if got := burns[0].Short; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("merged short burn = %g, want 0.9", got)
	}
	if burns[0].Alerting {
		t.Fatal("merged view alerting on a healthy cluster")
	}
	if one := MergeStates(a).Burns(); !one[0].Alerting {
		t.Fatal("single hot node must alert on its own totals")
	}
}
