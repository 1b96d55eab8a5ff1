package core

import (
	"math/rand"
	"testing"
)

// rigid returns a one-task chain demanding procs×duration due by deadline.
func rigid(procs int, duration, deadline float64) Chain {
	return Chain{Tasks: []Task{{Procs: procs, Duration: duration, Deadline: deadline}}}
}

func TestDiagnoseWidthConstraint(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	job := Job{ID: 1, Chains: []Chain{rigid(8, 5, 100)}}
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job wider than machine planned")
	}
	d := s.diagnose(job)
	cd := d.Chains[0]
	if cd.Schedulable || cd.FailedTask != 0 {
		t.Fatalf("expected task 0 failure, got %+v", cd)
	}
	if cd.Constraint != ConstraintWidth {
		t.Fatalf("constraint = %q, want width", cd.Constraint)
	}
	if cd.Slack.ExtraDeadline != 0 {
		t.Fatalf("deadline slack %v for a width-bound job", cd.Slack.ExtraDeadline)
	}
	if cd.Slack.ExtraProcs != 4 {
		t.Fatalf("extra procs = %d, want 4 (8-wide task on a 4-wide machine)", cd.Slack.ExtraProcs)
	}
	if cd.Slack.ReducedWidth == 0 {
		t.Fatalf("narrowing an 8-wide task onto a 4-wide idle machine must help")
	}
	if d.Suggestion == nil {
		t.Fatalf("no suggestion for an admissible-after-relaxation job")
	}
}

func TestDiagnoseDeadlineConstraint(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	// Window [0, 3) is intrinsically too short for a 5-long task.
	job := Job{ID: 2, Chains: []Chain{rigid(2, 5, 3)}}
	d := s.diagnose(job)
	cd := d.Chains[0]
	if cd.Constraint != ConstraintDeadline {
		t.Fatalf("constraint = %q, want deadline", cd.Constraint)
	}
	if got, want := cd.Slack.ExtraDeadline, 2.0; !timeEq(got, want) {
		t.Fatalf("extra deadline = %v, want %v", got, want)
	}
	if cd.Slack.ExtraProcs != 0 {
		t.Fatalf("proc slack %d for an intrinsically deadline-bound job", cd.Slack.ExtraProcs)
	}
}

func TestDiagnoseCapacityConstraint(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	// Fill 3 of 4 procs over [0, 10): a 2-wide task due by 8 cannot fit.
	if err := s.ReserveSlot(3, 0, 10); err != nil {
		t.Fatal(err)
	}
	job := Job{ID: 3, Chains: []Chain{rigid(2, 4, 8)}}
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job planned despite the blockade")
	}
	d := s.diagnose(job)
	cd := d.Chains[0]
	if cd.Constraint != ConstraintCapacity {
		t.Fatalf("constraint = %q, want capacity", cd.Constraint)
	}
	// Near-miss: the plane offers width 1 over [0, 8] for a 4-long window.
	if cd.AvailProcs != 1 {
		t.Fatalf("avail procs = %d, want 1 (one proc free under the blockade)", cd.AvailProcs)
	}
	if cd.WantProcs != 2 {
		t.Fatalf("want procs = %d, want 2", cd.WantProcs)
	}
	// One extra processor admits it (2 free ≥ 2 wide).
	if cd.Slack.ExtraProcs != 1 {
		t.Fatalf("extra procs = %d, want 1", cd.Slack.ExtraProcs)
	}
	// Deadline slack: unbounded replay starts at 10, finishes 14; 14-8=6.
	if got, want := cd.Slack.ExtraDeadline, 6.0; !timeEq(got, want) {
		t.Fatalf("extra deadline = %v, want %v", got, want)
	}
	// Width 1 for 8 time units fits in [0, 8) under the blockade.
	if cd.Slack.ReducedWidth != 1 {
		t.Fatalf("reduced width = %d, want 1", cd.Slack.ReducedWidth)
	}
}

func TestDiagnoseEmittedOnlyOnFailure(t *testing.T) {
	var got []*PlanDiagnosis
	opts := &Options{Diagnosis: func(d *PlanDiagnosis) { got = append(got, d) }}
	s := NewScheduler(4, 0, opts)
	if _, err := s.Admit(Job{ID: 1, Chains: []Chain{rigid(2, 5, 100)}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("diagnosis emitted for an admitted job")
	}
	if _, err := s.Admit(Job{ID: 2, Chains: []Chain{rigid(8, 5, 100)}}); err == nil {
		t.Fatalf("8-wide job admitted on a 4-wide machine")
	}
	if len(got) != 1 || got[0].JobID != 2 {
		t.Fatalf("expected one diagnosis for job 2, got %+v", got)
	}
}

// TestDiagnoseClosedLoop is the core half of the closed-loop acceptance
// criterion: for a storm of random rejected jobs, every diagnosis carries
// a suggestion, and replaying that suggestion via WhatIf flips the job to
// admitted.
func TestDiagnoseClosedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScheduler(8, 0, nil)
	rejected, suggested := 0, 0
	for i := 0; i < 400; i++ {
		release := rng.Float64() * 200
		nTasks := 1 + rng.Intn(3)
		var tasks []Task
		deadline := release
		for k := 0; k < nTasks; k++ {
			dur := 0.5 + rng.Float64()*8
			deadline += dur * (0.3 + rng.Float64()) // often too tight
			tasks = append(tasks, Task{
				Procs:    1 + rng.Intn(12), // sometimes wider than the machine
				Duration: dur,
				Deadline: deadline,
			})
		}
		job := Job{ID: i, Release: release, Chains: []Chain{{Tasks: tasks}}}
		if job.Validate() != nil {
			continue
		}
		if pl, ok := s.Plan(job); ok {
			if err := s.Commit(job, pl); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rejected++
		d := s.diagnose(job)
		if d.Suggestion == nil {
			t.Fatalf("job %d: rejected with no suggestion: %+v", i, d.Chains)
		}
		suggested++
		if _, ok := s.WhatIf(job, *d.Suggestion); !ok {
			t.Fatalf("job %d: suggestion %+v does not admit the job", i, *d.Suggestion)
		}
	}
	if rejected < 20 {
		t.Fatalf("storm produced only %d rejections; tighten the generator", rejected)
	}
	if suggested != rejected {
		t.Fatalf("%d rejections but %d suggestions", rejected, suggested)
	}
}

// TestDiagnoseTunableChains checks per-candidate-chain diagnoses on a
// tunable job whose chains fail for different reasons.
func TestDiagnoseTunableChains(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	if err := s.ReserveSlot(4, 0, 6); err != nil {
		t.Fatal(err)
	}
	job := Job{ID: 9, Chains: []Chain{
		rigid(8, 2, 100), // chain 0: wider than the machine
		rigid(2, 3, 5),   // chain 1: blocked by the full reservation until 6
	}}
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job planned")
	}
	d := s.diagnose(job)
	if len(d.Chains) != 2 {
		t.Fatalf("diagnosed %d chains, want 2", len(d.Chains))
	}
	if d.Chains[0].Constraint != ConstraintWidth {
		t.Fatalf("chain 0 constraint = %q, want width", d.Chains[0].Constraint)
	}
	if d.Chains[1].Constraint != ConstraintCapacity {
		t.Fatalf("chain 1 constraint = %q, want capacity", d.Chains[1].Constraint)
	}
	// Chain 1 needs the machine free at 6: +4 deadline admits it.
	if got, want := d.Chains[1].Slack.ExtraDeadline, 4.0; !timeEq(got, want) {
		t.Fatalf("chain 1 extra deadline = %v, want %v", got, want)
	}
	// The suggestion must prefer the cheap deadline extension on chain 1.
	if d.Suggestion == nil || d.Suggestion.ExtraDeadline == 0 || d.Suggestion.OnlyChain != 2 {
		t.Fatalf("suggestion = %+v, want deadline extension on chain 2 (1-based)", d.Suggestion)
	}
	if _, ok := s.WhatIf(job, *d.Suggestion); !ok {
		t.Fatalf("suggestion does not admit the job")
	}
}

func TestDiagnoseMalleable(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	if err := s.ReserveSlot(3, 0, 10); err != nil {
		t.Fatal(err)
	}
	// Malleable task: 12 units of work, up to 4 procs, due by 5.  Under the
	// blockade only 1 proc is free: needs 12 time units, has 5.
	job := Job{ID: 4, Chains: []Chain{{Tasks: []Task{
		{Malleable: true, Work: 12, MaxProcs: 4, Deadline: 5},
	}}}}
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job planned despite the blockade")
	}
	d := s.diagnose(job)
	cd := d.Chains[0]
	if cd.Constraint != ConstraintCapacity {
		t.Fatalf("constraint = %q, want capacity (idle machine would finish 12/4=3 <= 5)", cd.Constraint)
	}
	if cd.Slack.ReducedWidth != 0 {
		t.Fatalf("width slack %d on a malleable task", cd.Slack.ReducedWidth)
	}
	if cd.Slack.ExtraProcs == 0 {
		t.Fatalf("machine growth must admit an intrinsically feasible malleable task")
	}
	if d.Suggestion == nil {
		t.Fatalf("no suggestion")
	}
	if _, ok := s.WhatIf(job, *d.Suggestion); !ok {
		t.Fatalf("suggestion %+v does not admit", *d.Suggestion)
	}
}
