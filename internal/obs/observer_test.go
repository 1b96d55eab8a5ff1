package obs

import (
	"fmt"
	"reflect"
	"testing"

	"milan/internal/calypso"
	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/qos"
	"milan/internal/sim"
)

func tunableJob(id int, release float64) core.Job {
	return core.Job{ID: id, Release: release, Chains: []core.Chain{
		{Name: "wide", Quality: 1, Tasks: []core.Task{
			{Name: "t", Procs: 4, Duration: 10, Deadline: release + 40},
		}},
		{Name: "narrow", Quality: 0.5, Tasks: []core.Task{
			{Name: "t", Procs: 1, Duration: 30, Deadline: release + 40},
		}},
	}}
}

func eventTypes(evs []Event) map[EventType]int {
	m := make(map[EventType]int)
	for _, ev := range evs {
		m[ev.Type]++
	}
	return m
}

// TestInstrumentedScheduler reads the scheduler's sched_* signals through
// an instrumented arbitrator: each decision counted and traced as it is
// made, the planner's work pulled after the fact.
func TestInstrumentedScheduler(t *testing.T) {
	o := New(Config{})
	arb, err := fed.New(fed.Config{Procs: 4, Observer: o.DecisionObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	job := tunableJob(1, 0)
	job.Trace, job.Span = 7, 8
	if _, err := arb.Negotiate(job); err != nil {
		t.Fatal(err)
	}
	// Saturate the machine so a later urgent job is rejected.
	if _, err := arb.Negotiate(core.Job{ID: 2, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 4, Duration: 100, Deadline: 110}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.Negotiate(core.Job{ID: 3, Trace: 9, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 4, Duration: 5, Deadline: 20}}},
	}}); err == nil {
		t.Fatal("infeasible job admitted")
	}
	o.RecordPlanner(arb.Stats(), arb.IndexStats())

	snap := o.Snapshot()
	if snap.Counters[MetricAdmitted] != 2 || snap.Counters[MetricRejected] != 1 || snap.Counters[MetricDecisions] != 3 {
		t.Fatalf("admitted/rejected/decisions = %d/%d/%d, want 2/1/3",
			snap.Counters[MetricAdmitted], snap.Counters[MetricRejected], snap.Counters[MetricDecisions])
	}
	if snap.Gauges[MetricChainsTried] != 4 { // 2 + 1 + 1
		t.Fatalf("chains tried = %v, want 4", snap.Gauges[MetricChainsTried])
	}
	if snap.Gauges[MetricHolesProbed] < 4 {
		t.Fatalf("holes probed = %v, want >= 4", snap.Gauges[MetricHolesProbed])
	}
	if snap.Gauges[MetricPlanFailures] != 1 {
		t.Fatalf("plan failures = %v, want 1", snap.Gauges[MetricPlanFailures])
	}
	if snap.Gauges[MetricReservedArea] != 440 { // 4x10 + 4x100
		t.Fatalf("reserved area = %v, want 440", snap.Gauges[MetricReservedArea])
	}
	if snap.Gauges[MetricIndexDescents] == 0 {
		t.Fatalf("profile-index gauges not pulled: %v", snap.Gauges)
	}

	evs := o.Events()
	if types := eventTypes(evs); len(evs) != 3 || types[EvCommitted] != 2 || types[EvRejected] != 1 {
		t.Fatalf("event types = %v", types)
	}
	want := Event{Type: EvCommitted, Job: 1, Trace: 7, Span: 8,
		Attrs: map[string]float64{"start": 0, "finish": 10, "area": 40, "quality": 1}}
	if got := evs[0]; got.Type != want.Type || got.Job != want.Job || got.Chain != 0 || got.Trace != want.Trace ||
		got.Span != want.Span || !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Fatalf("committed event = %+v, want %+v", got, want)
	}
	if got := evs[2]; got.Type != EvRejected || got.Job != 3 || got.Trace != 9 || got.Reason != "no-feasible-chain" {
		t.Fatalf("rejected event = %+v", got)
	}
}

func TestInstrumentedArbitrator(t *testing.T) {
	o := New(Config{})
	var seen int
	arb, err := fed.New(fed.Config{
		Procs:    4,
		Observer: o.DecisionObserver(func(qos.Decision) { seen++ }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.Negotiate(tunableJob(1, 0)); err != nil {
		t.Fatal(err)
	}
	if o.Snapshot().Counters[MetricDecisions] != 1 {
		t.Fatalf("decisions = %d, want 1", o.Snapshot().Counters[MetricDecisions])
	}
	if seen != 1 {
		t.Fatalf("wrapped observer saw %d decisions, want 1", seen)
	}
}

func TestInstrumentDynamicRenegotiation(t *testing.T) {
	o := New(Config{})
	d, err := qos.NewDynamicArbitrator(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var chainedReneg, chainedAbort int
	d.OnRenegotiated = func(int, *qos.Grant) { chainedReneg++ }
	d.OnAborted = func(int) { chainedAbort++ }
	o.InstrumentDynamic(d)

	// Two 2-proc jobs run side by side on 4 processors; a third with a
	// tight deadline queues behind them.  Halving the machine forces job 2
	// to slide later (renegotiated) and pushes job 3 past its deadline
	// (aborted).
	for id, deadline := range map[int]float64{1: 1000, 2: 1000} {
		if _, err := d.Negotiate(core.Job{ID: id, Chains: []core.Chain{
			{Quality: 1, Tasks: []core.Task{{Procs: 2, Duration: 10, Deadline: deadline}}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Negotiate(core.Job{ID: 3, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 2, Duration: 5, Deadline: 16}}},
	}}); err != nil {
		t.Fatal(err)
	}
	aborted, err := d.SetCapacity(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(aborted) != 1 || aborted[0] != 3 {
		t.Fatalf("aborted = %v, want [3]", aborted)
	}

	snap := o.Snapshot()
	if snap.Counters[MetricAborted] != 1 {
		t.Fatalf("aborted counter = %d, want 1", snap.Counters[MetricAborted])
	}
	if snap.Counters[MetricRenegotiated] != 1 {
		t.Fatalf("renegotiated counter = %d, want 1", snap.Counters[MetricRenegotiated])
	}
	if snap.Counters[MetricDecisions] != 3 {
		t.Fatalf("decisions = %d, want 3", snap.Counters[MetricDecisions])
	}
	if chainedReneg != 1 || chainedAbort != 1 {
		t.Fatalf("chained callbacks = %d/%d, want 1/1", chainedReneg, chainedAbort)
	}
	types := eventTypes(o.Events())
	if types[EvRenegotiated] != 1 || types[EvAborted] != 1 || types[EvCommitted] != 3 {
		t.Fatalf("event types = %v", types)
	}
	var aborts []Event
	for _, ev := range o.Events() {
		if ev.Type == EvAborted {
			aborts = append(aborts, ev)
		}
	}
	if aborts[0].Job != 3 || aborts[0].Reason != "capacity-change" {
		t.Fatalf("abort event = %+v", aborts[0])
	}
}

func TestBindEngine(t *testing.T) {
	o := New(Config{})
	var engine sim.Engine
	engine.OnEvent = o.BindEngine(&engine)
	var fired int
	engine.At(5, "tick", func() { fired++ })
	engine.At(9, "tock", func() {})
	engine.Run()
	if fired != 1 {
		t.Fatal("callback not run")
	}
	if got := o.Snapshot().Counters[MetricSimEvents]; got != 2 {
		t.Fatalf("sim events = %d, want 2", got)
	}
	evs := o.Events()
	if len(evs) != 2 || evs[0].Type != EvEventFired || evs[0].Name != "tick" || evs[0].Time != 5 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Time != 9 {
		t.Fatalf("second event time = %v, want 9", evs[1].Time)
	}
	// The observer's clock follows the sim clock after binding.
	if now := o.now(); now != 9 {
		t.Fatalf("observer clock = %v, want 9 (sim time)", now)
	}
	o.SetClock(nil) // back to wall time
	if now := o.now(); now == 9 {
		t.Fatal("clock still pinned to sim time after SetClock(nil)")
	}
}

func TestCalypsoHooks(t *testing.T) {
	o := New(Config{})
	rt, err := calypso.New(calypso.Config{
		Workers: 2,
		Faults:  &calypso.FaultPlan{TransientProb: 0.3, Seed: 11},
		Hooks:   o.CalypsoHooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := rt.Parallel(4, func(ctx *calypso.TaskCtx, width, number int) error {
			ctx.Write(fmt.Sprintf("k%d", number), number)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	if snap.Counters[MetricCalypsoSteps] != 3 {
		t.Fatalf("steps = %d, want 3", snap.Counters[MetricCalypsoSteps])
	}
	if snap.Counters[MetricCalypsoExecs] < 12 {
		t.Fatalf("execs = %d, want >= 12", snap.Counters[MetricCalypsoExecs])
	}
	if snap.Histograms[MetricStepSeconds].Count != 3 {
		t.Fatalf("step duration samples = %d, want 3", snap.Histograms[MetricStepSeconds].Count)
	}
	types := eventTypes(o.Events())
	if types[EvStepStart] != 3 || types[EvStepDone] != 3 {
		t.Fatalf("event types = %v", types)
	}
}

func TestObserverRecentAndExtraSink(t *testing.T) {
	extra := NewRingSink(16)
	o := New(Config{RingSize: 4, Sink: extra})
	for i := 1; i <= 6; i++ {
		o.Emit(Event{Type: EvEventFired, Job: i})
	}
	all := o.Events()
	if len(all) != 4 || all[0].Job != 3 {
		t.Fatalf("ring = %+v", all)
	}
	recent := o.Recent(2)
	if len(recent) != 2 || recent[0].Job != 5 || recent[1].Job != 6 {
		t.Fatalf("recent = %+v", recent)
	}
	if len(o.Recent(0)) != 4 {
		t.Fatalf("Recent(0) = %d events, want all 4", len(o.Recent(0)))
	}
	if extra.Total() != 6 { // the extra sink sees everything, unbounded by the ring
		t.Fatalf("extra sink total = %d, want 6", extra.Total())
	}
	for _, ev := range extra.Events() {
		if ev.Time == 0 && ev.Job != 1 { // first event may land at t=0 exactly
			t.Fatalf("event missing timestamp: %+v", ev)
		}
	}
}
