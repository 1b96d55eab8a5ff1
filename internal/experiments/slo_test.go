package experiments

import (
	"testing"

	"milan/internal/obs"
	"milan/internal/obs/slo"
	"milan/internal/workload"
)

// auditedConfig returns a small audited configuration: tracing observer,
// SLO engine, flight recorder.
func auditedConfig(jobs int) (Config, *slo.Engine, *slo.Recorder, *obs.Observer) {
	o := obs.New(obs.Config{Tracing: true, SpanRingSize: 1 << 14})
	rec := slo.NewRecorder(o.Tracer(), o)
	eng := slo.New(slo.Options{Registry: o.Reg, Recorder: rec})
	cfg := DefaultConfig()
	cfg.Jobs = jobs
	cfg.Obs = o
	cfg.SLO = eng
	return cfg, eng, rec, o
}

// TestAuditedRunConformant is the paper's hard invariant, end to end: a
// faithful runtime (completions exactly at the reserved finish) must
// produce zero deadline misses and zero over-admissions — admitted
// implies met.
func TestAuditedRunConformant(t *testing.T) {
	cfg, eng, rec, o := auditedConfig(400)
	res, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Report()
	if !r.Conformant() {
		t.Fatalf("faithful run violated SLO: %+v", r.Violations)
	}
	if r.Admitted != int64(res.Admitted) || r.Rejected != int64(res.Rejected) {
		t.Fatalf("SLO counters diverge from run result: slo=%+v run=%+v", r, res)
	}
	if r.Completed != r.Admitted || r.InFlight != 0 {
		t.Fatalf("completions missing: %+v", r)
	}
	if rec.Len() != 0 {
		t.Fatalf("flight recorder triggered on a conformant run: %d snapshots", rec.Len())
	}
	if len(o.Tracer().Spans()) == 0 {
		t.Fatal("no spans recorded on a traced run")
	}
	// Every job's trace carries the arrival span and, under it, the
	// admission phases its record timed; an admitted job's a run stage too.
	trees := obs.BuildSpanTrees(o.Tracer().Spans())
	checked := 0
	for _, tree := range trees {
		for _, stage := range []string{obs.StageArrival, obs.StageRoute, obs.StagePlan, obs.StageReserve} {
			if tree.FindStage(stage) == nil {
				t.Fatalf("trace %d missing %s span", tree.Trace, stage)
			}
		}
		if run := tree.FindStage(obs.StageRun); run != nil {
			for _, attr := range []string{"deadline", "reserved_finish"} {
				if _, ok := run.Attrs[attr]; !ok {
					t.Fatalf("run span missing %s attr: %+v", attr, run.SpanRec)
				}
			}
			// A faithful runtime ends the run where the reservation did.
			if run.End != run.Attrs["reserved_finish"] {
				t.Fatalf("run span ends at %v, reserved finish %v", run.End, run.Attrs["reserved_finish"])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no run spans found in any trace")
	}
}

// TestInjectedPlannerFaultLocalizes feeds the SLO engine a reservation
// already past its deadline (bypassing the real planner, which never emits
// one): the over-admission trigger must localize to the planner.
func TestInjectedPlannerFaultLocalizes(t *testing.T) {
	rec := slo.NewRecorder(nil, nil)
	eng := slo.New(slo.Options{Recorder: rec})
	eng.JobAdmitted(1, 77, 1.0, 10.0, 12.0)
	if rec.Len() != 1 {
		t.Fatal("over-admission did not trigger")
	}
	if v := slo.Replay(rec.Last()); v.Fault != "planner" {
		t.Fatalf("verdict = %+v, want planner", v)
	}
}

// TestDefaultRunUnchangedByAuditKnobs pins the zero-cost contract: the
// same seed with and without auditing produces bit-identical RunResults.
func TestDefaultRunUnchangedByAuditKnobs(t *testing.T) {
	base := DefaultConfig()
	base.Jobs = 300
	plain, err := Run(base, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	audited, eng, _, _ := auditedConfig(300)
	got, err := Run(audited, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Admitted != got.Admitted || plain.Rejected != got.Rejected ||
		plain.Utilization != got.Utilization || plain.Horizon != got.Horizon ||
		plain.MeanLateSlack != got.MeanLateSlack {
		t.Fatalf("auditing changed the run:\nplain   %+v\naudited %+v", plain, got)
	}
	if eng.Report().Admitted == 0 {
		t.Fatal("audit engine saw nothing")
	}
}
