package slo

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"milan/internal/obs"
	"milan/internal/obs/latency"
)

// timed hands the engine's latency plane one admission that took d, as a
// finished phase record does.
func timed(e *Engine, d time.Duration) {
	e.Latency().Done(0, 0, 0, int64(d), [latency.NumPhases]int64{}, 0)
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.JobAdmitted(1, 1, 0, 1, 1)
	e.JobRejected()
	if e.Latency() != nil {
		t.Fatal("nil engine has a latency plane")
	}
	if e.JobCompleted(1, 0) {
		t.Fatal("nil engine reported a miss")
	}
	e.Tick(0)
	if r := e.Report(); r.Admitted != 0 || !r.Conformant() {
		t.Fatalf("nil engine report: %+v", r)
	}
}

func TestHardInvariantDeadlineMiss(t *testing.T) {
	e := New(Options{})
	e.JobAdmitted(7, 42, 1.0, 10.0, 9.5)
	if missed := e.JobCompleted(7, 9.9); missed {
		t.Fatal("on-time completion flagged as miss")
	}
	r := e.Report()
	if !r.Conformant() || r.Completed != 1 {
		t.Fatalf("conformant run misreported: %+v", r)
	}

	e.JobAdmitted(8, 43, 2.0, 10.0, 9.5)
	if missed := e.JobCompleted(8, 10.5); !missed {
		t.Fatal("late completion not flagged as miss")
	}
	r = e.Report()
	if r.Conformant() || r.DeadlineMisses != 1 {
		t.Fatalf("miss not reported: %+v", r)
	}
	if len(r.Violations) != 1 || r.Violations[0].Kind != "deadline-miss" ||
		r.Violations[0].JobID != 8 || r.Violations[0].Trace != 43 {
		t.Fatalf("violation record wrong: %+v", r.Violations)
	}

	// Unknown completions are ignored.
	if e.JobCompleted(999, 50) {
		t.Fatal("unknown job flagged as miss")
	}
}

func TestOverAdmissionTriggersImmediately(t *testing.T) {
	rec := NewRecorder(nil, nil)
	e := New(Options{Recorder: rec})
	// Reservation finishing after the deadline: planner fault by construction.
	e.JobAdmitted(3, 9, 0.5, 10.0, 10.7)
	r := e.Report()
	if r.Conformant() || r.OverAdmissions != 1 {
		t.Fatalf("over-admission not reported: %+v", r)
	}
	if rec.Len() != 1 || rec.Last().Kind != TriggerOverAdmission {
		t.Fatalf("recorder not triggered: len=%d", rec.Len())
	}
	if rec.Last().Trace != 9 {
		t.Fatalf("snapshot trace = %d, want 9", rec.Last().Trace)
	}
}

func TestLatencyBurnAlertEdgeTriggered(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg})
	// burnGauges asserts the published burn gauges, the level a node's
	// /metrics shows per node.
	burnGauges := func(short, long float64) {
		t.Helper()
		g := reg.Snapshot().Gauges
		if g[metricLatencyBurnShort] != short || g[metricLatencyBurnLong] != long {
			t.Fatalf("burn gauges short=%v long=%v, want %v %v", g[metricLatencyBurnShort], g[metricLatencyBurnLong], short, long)
		}
	}
	// All admissions 2x over the latency target: error rate 1.0, budget
	// 0.01 -> burn 100 on both windows.
	for i := 0; i < 20; i++ {
		timed(e, 10*time.Millisecond)
		e.JobAdmitted(i, uint64(i+1), float64(i)*0.6, 1e9, 1e8)
		e.Tick(float64(i) * 0.6)
	}
	e.Tick(12)
	r := e.Report()
	if r.LatencyBurnShort < 2 || r.LatencyBurnLong < 2 {
		t.Fatalf("burn rates not elevated: %+v", r)
	}
	burnGauges(100, 100)
	if len(r.Alerts) != 1 || r.Alerts[0].Objective != "admit-latency" {
		t.Fatalf("want exactly one admit-latency alert, got %+v", r.Alerts)
	}
	// Still burning: no second alert (edge-triggered).
	e.Tick(15)
	if got := len(e.Report().Alerts); got != 1 {
		t.Fatalf("alert re-fired while still burning: %d", got)
	}
	// Let both windows drain (fast-forward past the long window), then
	// burn again: a second episode should alert again.
	e.Tick(3000)
	e.Tick(3006) // ends the burn episode once burn drops below threshold
	burnGauges(0, 0)
	for i := 0; i < 20; i++ {
		timed(e, 10*time.Millisecond)
		e.JobAdmitted(100+i, uint64(100+i), 3012+float64(i)*0.6, 1e9, 1e8)
		e.Tick(3012 + float64(i)*0.6)
	}
	e.Tick(3024)
	if got := len(e.Report().Alerts); got != 2 {
		t.Fatalf("second burn episode did not alert: %d alerts", got)
	}
}

func TestWindowBackwardClockResets(t *testing.T) {
	w := newWindow(10, 10)
	for i := 0; i < 5; i++ {
		w.addN(float64(i), 0, 1)
	}
	if bad, _ := w.totals(); bad != 5 {
		t.Fatalf("bad=%d before reset", bad)
	}
	// Sweep epoch restart: clock jumps back to zero.
	w.addN(0.5, 1, 0)
	if bad, total := w.totals(); bad != 0 || total != 1 {
		t.Fatalf("window did not reset on backward clock: bad=%d total=%d", bad, total)
	}
	// Far-forward jump also resets.
	w.addN(1e6, 0, 1)
	if bad, total := w.totals(); bad != 1 || total != 1 {
		t.Fatalf("window did not reset on forward jump: bad=%d total=%d", bad, total)
	}
}

func TestWindowExpiry(t *testing.T) {
	w := newWindow(10, 10)
	w.addN(0, 0, 1)
	w.advance(5)
	if bad, _ := w.totals(); bad != 1 {
		t.Fatalf("event expired early: bad=%d", bad)
	}
	w.advance(10.5) // past the event's bucket end by a full span? no: 10.5-1=9.5 < span
	// After a full window has passed the event is gone.
	w.advance(11.1)
	if bad, _ := w.totals(); bad != 0 {
		t.Fatalf("event survived past the window: bad=%d", bad)
	}
}

func TestBurnZeroBudgetIsInf(t *testing.T) {
	w := newWindow(10, 10)
	w.addN(0, 0, 1)
	if b := w.burn(0); !math.IsInf(b, 1) {
		t.Fatalf("zero-budget burn with errors = %v, want +Inf", b)
	}
	if clampInf(math.Inf(1)) != 1e9 {
		t.Fatal("clampInf broken")
	}
}

func TestReportLatencyQuantiles(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 100; i++ {
		timed(e, 2*time.Millisecond)
		e.JobAdmitted(i, uint64(i+1), 1, 1e9, 1e8)
	}
	r := e.Report()
	if r.LatencyP50 < 1e-3 || r.LatencyP50 > 4e-3 {
		t.Fatalf("p50 = %g, want ~2ms", r.LatencyP50)
	}
	if r.LatencyMean < 1e-3 || r.LatencyMean > 4e-3 {
		t.Fatalf("mean = %g, want ~2ms", r.LatencyMean)
	}
}

func TestWriteReport(t *testing.T) {
	rec := NewRecorder(nil, nil)
	e := New(Options{Recorder: rec})
	e.JobAdmitted(1, 5, 0, 10, 9)
	e.JobCompleted(1, 11) // miss
	var sb strings.Builder
	if err := e.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"VIOLATED", "deadline misses=1", "deadline-miss", "flight snapshots=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	e2 := New(Options{})
	e2.JobAdmitted(1, 5, 0, 10, 9)
	e2.JobCompleted(1, 9.5)
	sb.Reset()
	if err := e2.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CONFORMANT") {
		t.Fatalf("conformant run misreported:\n%s", sb.String())
	}
}

func TestRegistryMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg})
	e.JobAdmitted(1, 1, 0, 10, 9)
	e.JobRejected()
	e.JobCompleted(1, 11)
	e.Tick(1)
	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		metricAdmitted:       1,
		metricRejected:       1,
		metricCompleted:      1,
		metricDeadlineMisses: 1,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The engine's latency plane shares the registry.
	if _, ok := snap.Histograms["latency_admit_ns"]; !ok {
		t.Error("missing latency_admit_ns histogram")
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	e := New(Options{Recorder: NewRecorder(nil, nil)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				timed(e, time.Millisecond)
				e.JobAdmitted(id, uint64(id), float64(i), float64(i)+5, float64(i)+4)
				e.JobCompleted(id, float64(i)+4.5)
				e.Tick(float64(i))
			}
		}(g)
	}
	wg.Wait()
	r := e.Report()
	if r.Admitted != 1600 || r.Completed != 1600 {
		t.Fatalf("lost updates: %+v", r)
	}
	if !r.Conformant() {
		t.Fatalf("spurious violations: %+v", r.Violations)
	}
}
