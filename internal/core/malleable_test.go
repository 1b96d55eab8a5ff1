package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mall(name string, work float64, maxProcs int, deadline float64) Task {
	return Task{Name: name, Malleable: true, Work: work, MaxProcs: maxProcs, Deadline: deadline}
}

func TestMalleableUsesFullConcurrencyOnEmptyMachine(t *testing.T) {
	s := NewScheduler(8, 0, nil)
	job := Job{ID: 1, Chains: []Chain{
		{Name: "c", Tasks: []Task{mall("m", 40, 8, 100)}},
	}}
	pl := mustAdmit(t, s, job)
	tp := pl.Tasks[0]
	if tp.Procs != 8 {
		t.Fatalf("procs = %d, want 8 (descending policy starts at max)", tp.Procs)
	}
	if !timeEq(tp.Finish-tp.Start, 5) {
		t.Fatalf("duration = %v, want 40/8 = 5", tp.Finish-tp.Start)
	}
}

func TestMalleableCappedByMachineSize(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	job := Job{ID: 1, Chains: []Chain{
		{Name: "c", Tasks: []Task{mall("m", 40, 16, 100)}},
	}}
	pl := mustAdmit(t, s, job)
	if pl.Tasks[0].Procs != 4 {
		t.Fatalf("procs = %d, want 4 (machine size)", pl.Tasks[0].Procs)
	}
	if !timeEq(pl.Tasks[0].Finish, 10) {
		t.Fatalf("finish = %v, want 40/4 = 10", pl.Tasks[0].Finish)
	}
}

func TestMalleableSqueezesIntoNarrowHole(t *testing.T) {
	s := NewScheduler(8, 0, nil)
	// Occupy 6 procs on [0, 30): only 2 free until then.
	mustAdmit(t, s, Job{ID: 0, Chains: []Chain{
		{Name: "hog", Tasks: []Task{rect("h", 6, 30, 30)}},
	}})
	// Work 20, max 8, deadline 15: 8 procs can't fit before 30; 2 procs for
	// 10 time units fits at 0..10.
	job := Job{ID: 1, Chains: []Chain{
		{Name: "c", Tasks: []Task{mall("m", 20, 8, 15)}},
	}}
	pl := mustAdmit(t, s, job)
	tp := pl.Tasks[0]
	if tp.Procs != 2 || !timeEq(tp.Start, 0) || !timeEq(tp.Finish, 10) {
		t.Fatalf("placement = %+v, want 2 procs on [0,10)", tp)
	}
}

func TestMalleableDescendingVersusEarliestFinish(t *testing.T) {
	// Occupy 6 of 8 procs on [0, 7).  Work 16, max 8.
	//   p=8: starts at 7, duration 2, finish 9.
	//   p=2: starts at 0, duration 8, finish 8.
	// The paper's rule takes the highest count that meets the deadline,
	// p=8, although p=2 would finish earlier.
	s := NewScheduler(8, 0, nil)
	mustAdmit(t, s, Job{ID: 0, Chains: []Chain{
		{Name: "hog", Tasks: []Task{rect("h", 6, 7, 7)}},
	}})
	pl := mustAdmit(t, s, Job{ID: 1, Chains: []Chain{
		{Name: "c", Tasks: []Task{mall("m", 16, 8, 100)}},
	}})
	if desc := pl.Tasks[0]; desc.Procs != 8 || !timeEq(desc.Finish, 9) {
		t.Errorf("descending placement = %+v, want 8 procs finishing at 9", desc)
	}
}

func TestMalleableRejectedWhenNoCountFits(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	mustAdmit(t, s, Job{ID: 0, Chains: []Chain{
		{Name: "hog", Tasks: []Task{rect("h", 4, 50, 50)}},
	}})
	// Deadline 40 with machine full until 50: even 1 proc cannot fit.
	_, err := s.Admit(Job{ID: 1, Chains: []Chain{
		{Name: "c", Tasks: []Task{mall("m", 4, 4, 40)}},
	}})
	if err == nil {
		t.Fatal("infeasible malleable job admitted")
	}
}

// TestQuickMalleablePlacementsConserveWork: a malleable placement's area
// equals the task's work (linear speedup), its processor count respects the
// degree of concurrency, and deadlines hold.
func TestQuickMalleablePlacementsConserveWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 4 + rng.Intn(12)
		s := NewScheduler(capacity, 0, nil)
		release := 0.0
		for i := 0; i < 60; i++ {
			release += rng.Float64() * 10
			work := 5 + rng.Float64()*50
			maxP := 1 + rng.Intn(2*capacity)
			deadline := release + work*(0.5+rng.Float64()*2)
			job := Job{ID: i, Release: release, Chains: []Chain{
				{Tasks: []Task{{Malleable: true, Work: work, MaxProcs: maxP, Deadline: deadline}}},
			}}
			pl, err := s.Admit(job)
			if err != nil {
				continue
			}
			tp := pl.Tasks[0]
			if tp.Procs < 1 || tp.Procs > maxP || tp.Procs > capacity {
				return false
			}
			if !timeEq(float64(tp.Procs)*(tp.Finish-tp.Start), work) {
				return false
			}
			if !timeLeq(tp.Finish, deadline) || timeLess(tp.Start, release) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
