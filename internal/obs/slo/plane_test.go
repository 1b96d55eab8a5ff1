package slo

import (
	"reflect"
	"testing"
	"time"

	"milan/internal/obs"
	"milan/internal/obs/latency"
)

// TestAdmitLatencyReadsThePlane drives a fixed stream of 400 decisions
// through the engine's latency plane: latencies under the 5 ms target but
// for two bursts over it, one before and one after a sweep's clock
// restart at zero, a Tick after every decision.  The expected values are
// what the engine gave when it timed admissions itself — its own
// histogram and per-sample windows fed each decision's latency — so
// measuring once on the plane and judging its counts moved none of the
// state, report, gauges or alerts.
func TestAdmitLatencyReadsThePlane(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg})
	now := 0.0
	for i := 0; i < 400; i++ {
		if i == 260 {
			now = 0
		}
		lat := time.Duration(200_000 + (i*7919)%4_000_000)
		if (i >= 120 && i < 140) || (i >= 330 && i < 342) {
			lat = 6*time.Millisecond + time.Duration(i)*1000
		}
		e.Latency().Done(uint64(i+1), int64(i), 0, int64(lat), [latency.NumPhases]int64{}, 0)
		if i%4 != 3 {
			e.JobAdmitted(i, uint64(i+1), now, now+100, now+50)
		} else {
			e.JobRejected()
		}
		e.Tick(now)
		now += 0.75
	}

	wantState := EngineState{
		Admitted: 300, Rejected: 100, InFlight: 300, BurnThreshold: 2,
		Objectives: []ObjectiveState{{
			Name: "admit-latency", Budget: 0.01, Active: true,
			ShortBad: 12, ShortTotal: 78, LongBad: 12, LongTotal: 140,
		}},
	}
	if got := e.exportState(); !reflect.DeepEqual(got, wantState) {
		t.Errorf("state = %+v\nwant    %+v", got, wantState)
	}
	wantReport := Report{
		Admitted: 300, Rejected: 100, InFlight: 300,
		Alerts: []Alert{
			{Objective: "admit-latency", Short: 3.75, Long: 2.4390243902439024, At: 91.5},
			{Objective: "admit-latency", Short: 2.7777777777777777, Long: 2.7777777777777777, At: 53.25},
		},
		LatencyTarget:    0.005,
		LatencyP50:       0.001935239529411765,
		LatencyP99:       0.006640981333333333,
		LatencyMean:      0.0021294002400000004,
		LatencyBurnShort: 15.384615384615385,
		LatencyBurnLong:  8.571428571428571,
	}
	if got := e.Report(); !reflect.DeepEqual(got, wantReport) {
		t.Errorf("report = %+v\nwant     %+v", got, wantReport)
	}
	g := reg.Snapshot().Gauges
	if g[metricLatencyBurnShort] != 15.384615384615385 || g[metricLatencyBurnLong] != 8.571428571428571 {
		t.Errorf("burn gauges short=%v long=%v, want 15.384615384615385 8.571428571428571",
			g[metricLatencyBurnShort], g[metricLatencyBurnLong])
	}
}
