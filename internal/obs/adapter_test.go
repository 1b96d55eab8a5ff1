package obs_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/qos"
	"milan/internal/workload"
)

// decisionStream is 200 traced Figure-4 jobs at twice the machine's
// capacity, so about half are refused.
func decisionStream() []core.Job {
	spec := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	jobs := spec.Stream(workload.NewPoisson(12, 7), 200, workload.Tunable)
	for i := range jobs {
		jobs[i].Trace, jobs[i].Span = uint64(1000+i), uint64(2000+i)
	}
	return jobs
}

// decisionEvents is the observer's Committed / Rejected stream.
func decisionEvents(o *obs.Observer) []obs.Event {
	var out []obs.Event
	for _, ev := range o.Events() {
		if ev.Type == "Committed" || ev.Type == "Rejected" {
			out = append(out, ev)
		}
	}
	return out
}

// checkPulledPlanner asserts the planner gauges RecordPlanner sets are the
// arbitrator's Stats.
func checkPulledPlanner(t *testing.T, o *obs.Observer, st core.Stats, ix core.IndexStats) {
	t.Helper()
	o.RecordPlanner(st, ix)
	g := o.Reg.Snapshot().Gauges
	for name, want := range map[string]int{
		"sched_chains_tried":  st.ChainsTried,
		"sched_holes_probed":  st.HolesProbed,
		"sched_plan_failures": st.PlanFailures,
	} {
		if g[name] != float64(want) {
			t.Errorf("%s = %v, want Stats() %d", name, g[name], want)
		}
	}
}

// TestObserverIsADecisionAdapter: the observer hangs off the qos.Decision
// feed alone, so one adapter instruments the reference arbitrator and a
// plane alike.  One stream, with refusals, through an instrumented
// qos.Arbitrator and an instrumented one-shard plane gives equal counters,
// an equal reserved-area gauge and equal Committed / Rejected streams; at
// four shards, with concurrent callers — the adapter running under each
// shard's lock — the counters and events still add up to the plane's Stats.
func TestObserverIsADecisionAdapter(t *testing.T) {
	jobs := decisionStream()

	t.Run("monolith and one shard", func(t *testing.T) {
		mono, plane := obs.New(obs.Config{}), obs.New(obs.Config{})
		arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 32, Observer: mono.DecisionObserver(nil)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := fed.New(fed.Config{Procs: 32, Shards: 1, Observer: plane.DecisionObserver(nil)})
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range jobs {
			arb.Observe(job.Release)
			p.Observe(job.Release)
			_, errA := arb.Negotiate(job)
			_, errP := p.Negotiate(job)
			if (errA == nil) != (errP == nil) {
				t.Fatalf("job %d: monolith err %v, plane err %v", job.ID, errA, errP)
			}
		}
		if st := arb.Stats(); st.Admitted < 50 || st.Rejected < 50 {
			t.Fatalf("degenerate stream: %d admitted, %d rejected", st.Admitted, st.Rejected)
		}
		checkPulledPlanner(t, mono, arb.Stats(), arb.IndexStats())
		checkPulledPlanner(t, plane, p.Stats(), p.IndexStats())

		a, b := mono.Reg.Snapshot(), plane.Reg.Snapshot()
		for _, name := range []string{obs.MetricAdmitted, obs.MetricRejected, "qos_decisions"} {
			if a.Counters[name] != b.Counters[name] {
				t.Errorf("%s: monolith %d, plane %d", name, a.Counters[name], b.Counters[name])
			}
		}
		if st := arb.Stats(); a.Counters[obs.MetricAdmitted] != int64(st.Admitted) || a.Counters[obs.MetricRejected] != int64(st.Rejected) {
			t.Errorf("admitted/rejected counters %d/%d, Stats %d/%d",
				a.Counters[obs.MetricAdmitted], a.Counters[obs.MetricRejected], st.Admitted, st.Rejected)
		}
		for _, name := range []string{"sched_reserved_area", "sched_chains_tried", "sched_holes_probed", "sched_plan_failures"} {
			if a.Gauges[name] != b.Gauges[name] {
				t.Errorf("%s: monolith %v, plane %v", name, a.Gauges[name], b.Gauges[name])
			}
		}

		ea, eb := decisionEvents(mono), decisionEvents(plane)
		if len(ea) != len(jobs) || len(eb) != len(jobs) {
			t.Fatalf("decision events: monolith %d, plane %d, want one per job (%d)", len(ea), len(eb), len(jobs))
		}
		for i := range ea {
			x, y := ea[i], eb[i]
			if x.Type != y.Type || x.Job != y.Job || x.Chain != y.Chain || x.Reason != y.Reason ||
				x.Trace != y.Trace || x.Span != y.Span || !reflect.DeepEqual(x.Attrs, y.Attrs) {
				t.Fatalf("event %d:\n monolith %+v\n plane    %+v", i, x, y)
			}
			if job := jobs[i]; x.Job != job.ID || x.Trace != job.Trace || x.Span != job.Span {
				t.Fatalf("event %d = %+v, want job %d trace %d span %d", i, x, job.ID, job.Trace, job.Span)
			}
		}
	})

	t.Run("four shards, concurrent", func(t *testing.T) {
		o := obs.New(obs.Config{})
		p, err := fed.New(fed.Config{Procs: 32, Shards: 4, Observer: o.DecisionObserver(nil)})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(jobs); i += 4 {
					p.Observe(jobs[i].Release)
					p.Negotiate(jobs[i])
				}
			}(c)
		}
		wg.Wait()
		checkPulledPlanner(t, o, p.Stats(), p.IndexStats())

		st, snap := p.Stats(), o.Reg.Snapshot()
		if snap.Counters[obs.MetricAdmitted] != int64(st.Admitted) || snap.Counters[obs.MetricRejected] != int64(st.Rejected) ||
			snap.Counters["qos_decisions"] != int64(st.Admitted+st.Rejected) {
			t.Errorf("admitted/rejected/decisions counters %d/%d/%d, Stats %d/%d",
				snap.Counters[obs.MetricAdmitted], snap.Counters[obs.MetricRejected], snap.Counters["qos_decisions"],
				st.Admitted, st.Rejected)
		}
		// The shards add their areas in a different order than Stats sums them.
		if got := snap.Gauges["sched_reserved_area"]; math.Abs(got-st.ReservedArea) > 1e-9*st.ReservedArea {
			t.Errorf("reserved area gauge %v, Stats %v", got, st.ReservedArea)
		}
		var committed, rejected int
		for _, ev := range decisionEvents(o) {
			if ev.Type == "Committed" {
				committed++
			} else {
				rejected++
			}
		}
		if committed != st.Admitted || rejected != st.Rejected {
			t.Errorf("Committed/Rejected events %d/%d, Stats %d/%d", committed, rejected, st.Admitted, st.Rejected)
		}
	})
}
