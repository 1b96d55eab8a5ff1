package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic fork-join DAG:
//
//	  0 (prep)
//	 / \
//	1   2   (two independent analyses)
//	 \ /
//	  3 (merge)
func diamond(procs1, procs2 int, deadline float64) DAG {
	return DAG{
		Name: "diamond",
		Tasks: []DAGTask{
			{Task: Task{Name: "prep", Procs: 2, Duration: 5, Deadline: deadline}},
			{Task: Task{Name: "left", Procs: procs1, Duration: 10, Deadline: deadline}, Preds: []int{0}},
			{Task: Task{Name: "right", Procs: procs2, Duration: 10, Deadline: deadline}, Preds: []int{0}},
			{Task: Task{Name: "merge", Procs: 2, Duration: 5, Deadline: deadline}, Preds: []int{1, 2}},
		},
	}
}

func TestDAGValidate(t *testing.T) {
	if err := diamond(2, 2, 100).validate(); err != nil {
		t.Fatal(err)
	}
	empty := DAG{Name: "e"}
	if empty.validate() == nil {
		t.Error("empty DAG accepted")
	}
	self := DAG{Name: "s", Tasks: []DAGTask{
		{Task: Task{Procs: 1, Duration: 1, Deadline: 5}, Preds: []int{0}},
	}}
	if self.validate() == nil {
		t.Error("self-dependency accepted")
	}
	cyc := DAG{Name: "c", Tasks: []DAGTask{
		{Task: Task{Procs: 1, Duration: 1, Deadline: 5}, Preds: []int{1}},
		{Task: Task{Procs: 1, Duration: 1, Deadline: 5}, Preds: []int{0}},
	}}
	if cyc.validate() == nil {
		t.Error("cycle accepted")
	}
	oob := DAG{Name: "o", Tasks: []DAGTask{
		{Task: Task{Procs: 1, Duration: 1, Deadline: 5}, Preds: []int{7}},
	}}
	if oob.validate() == nil {
		t.Error("out-of-range predecessor accepted")
	}
}

func TestChainToDAGEquivalence(t *testing.T) {
	chain := Chain{Name: "c", Tasks: []Task{
		rect("a", 4, 10, 50),
		rect("b", 2, 5, 60),
	}}
	d := chainDAG(chain)
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	// Scheduling the linear DAG matches scheduling the chain.
	s1 := NewScheduler(8, 0, nil)
	chPl, err := s1.Admit(Job{ID: 1, Chains: []Chain{chain}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewScheduler(8, 0, nil)
	dagPl, err := s2.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{d}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range chPl.Tasks {
		if !timeEq(chPl.Tasks[i].Start, dagPl.Tasks[i].Start) ||
			!timeEq(chPl.Tasks[i].Finish, dagPl.Tasks[i].Finish) {
			t.Fatalf("task %d: chain %+v vs dag %+v", i, chPl.Tasks[i], dagPl.Tasks[i])
		}
	}
}

func TestDAGParallelBranchesOverlap(t *testing.T) {
	s := NewScheduler(8, 0, nil)
	pl, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{diamond(4, 4, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	// prep [0,5); both branches [5,15) concurrently; merge [15,20).
	if !timeEq(pl.Tasks[1].Start, 5) || !timeEq(pl.Tasks[2].Start, 5) {
		t.Fatalf("branches = %+v, %+v: not concurrent", pl.Tasks[1], pl.Tasks[2])
	}
	if !timeEq(pl.Tasks[3].Start, 15) {
		t.Fatalf("merge start = %v, want 15", pl.Tasks[3].Start)
	}
	// Makespan 20 < serial 30: real parallelism.
	if !timeEq(pl.Tasks[3].Finish, 20) {
		t.Fatalf("makespan = %v, want 20", pl.Tasks[3].Finish)
	}
}

func TestDAGBranchesSerializeWhenMachineTooNarrow(t *testing.T) {
	// Branches need 4+4 but the machine has 6: they must serialize.
	s := NewScheduler(6, 0, nil)
	pl, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{diamond(4, 4, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := pl.Tasks[1], pl.Tasks[2]
	overlap := minTime(b1.Finish, b2.Finish) - maxTime(b1.Start, b2.Start)
	if overlap > Eps {
		t.Fatalf("branches overlap by %v on a 6-proc machine: %+v %+v", overlap, b1, b2)
	}
	if !timeEq(pl.Tasks[3].Finish, 30) {
		t.Fatalf("makespan = %v, want 30 (serialized)", pl.Tasks[3].Finish)
	}
}

func TestDAGRespectsCapacityAgainstExistingLoad(t *testing.T) {
	s := NewScheduler(8, 0, nil)
	mustAdmit(t, s, Job{ID: 0, Chains: []Chain{
		{Name: "bg", Tasks: []Task{rect("bg", 6, 12, 100)}},
	}})
	pl, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{diamond(4, 4, 200)}})
	if err != nil {
		t.Fatal(err)
	}
	// Validate via processor assignment on everything committed.
	bg := &Placement{JobID: 0, Tasks: []TaskPlacement{{Task: 0, Start: 0, Finish: 12, Procs: 6}}}
	if _, err := AssignProcessors(8, []*Placement{bg, pl}); err != nil {
		t.Fatalf("DAG placement overcommits: %v", err)
	}
}

func TestDAGJobRejectedOnDeadline(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	// Diamond needs >= 20 serial time on 4 procs (branches serialize);
	// a deadline of 22 is feasible, 18 is not.
	if _, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{diamond(4, 4, 18)}}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if _, err := s.AdmitDAG(DAGJob{ID: 2, Alts: []DAG{diamond(4, 4, 35)}}); err != nil {
		t.Fatal(err)
	}
}

func TestTunableDAGJobPicksFeasibleAlternative(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	wide := diamond(4, 4, 25)   // infeasible on 4 procs (makespan 30)
	narrow := diamond(2, 2, 25) // branches 2+2 overlap: makespan 20
	pl, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{wide, narrow}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chain != 1 {
		t.Fatalf("chose alt %d, want 1", pl.Chain)
	}
	st := s.Stats()
	if st.Admitted != 1 || len(st.TunableChosen) < 2 || st.TunableChosen[1] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDAGJobValidate(t *testing.T) {
	if (DAGJob{ID: 1}).Validate() == nil {
		t.Error("alternative-less job accepted")
	}
	j := DAGJob{ID: 1, Release: 50, Alts: []DAG{diamond(2, 2, 20)}}
	if j.Validate() == nil {
		t.Error("deadline before release accepted")
	}
}

func TestDAGWithMalleableTasks(t *testing.T) {
	s := NewScheduler(8, 0, nil)
	d := DAG{
		Name: "mall",
		Tasks: []DAGTask{
			{Task: Task{Name: "a", Malleable: true, Work: 16, MaxProcs: 8, Deadline: 100}},
			{Task: Task{Name: "b", Malleable: true, Work: 16, MaxProcs: 8, Deadline: 100}, Preds: []int{0}},
		},
	}
	pl, err := s.AdmitDAG(DAGJob{ID: 1, Alts: []DAG{d}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tasks[0].Procs != 8 || !timeEq(pl.Tasks[1].Start, pl.Tasks[0].Finish) {
		t.Fatalf("placements = %+v", pl.Tasks)
	}
}

// TestQuickDAGPlacementsRespectPrecedenceAndCapacity: random DAGs admit
// only with valid precedence, deadlines and capacity.
func TestQuickDAGPlacementsRespectPrecedenceAndCapacity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 4 + rng.Intn(8)
		s := NewScheduler(capacity, 0, nil)
		var placements []*Placement
		release := 0.0
		for j := 0; j < 8; j++ {
			release += rng.Float64() * 20
			n := 2 + int(nRaw)%5
			dag := DAG{Name: "r"}
			dl := release
			for i := 0; i < n; i++ {
				dl += 5 + rng.Float64()*30
				dt := DAGTask{Task: Task{
					Procs:    1 + rng.Intn(capacity),
					Duration: 1 + rng.Float64()*8,
					Deadline: dl,
				}}
				// Random predecessors among earlier tasks.
				for p := 0; p < i; p++ {
					if rng.Intn(3) == 0 {
						dt.Preds = append(dt.Preds, p)
					}
				}
				dag.Tasks = append(dag.Tasks, dt)
			}
			pl, err := s.AdmitDAG(DAGJob{ID: j, Release: release, Alts: []DAG{dag}})
			if errors.Is(err, ErrRejected) {
				continue
			}
			if err != nil {
				return false
			}
			// Precedence.
			for i, dt := range dag.Tasks {
				if timeLess(pl.Tasks[i].Start, release) {
					return false
				}
				if !timeLeq(pl.Tasks[i].Finish, dt.Deadline) {
					return false
				}
				for _, p := range dt.Preds {
					if timeLess(pl.Tasks[i].Start, pl.Tasks[p].Finish) {
						return false
					}
				}
			}
			placements = append(placements, pl)
		}
		// Capacity: everything admitted binds to concrete processors.
		_, err := AssignProcessors(capacity, placements)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// chainDAG converts a chain into the equivalent linear DAG.
func chainDAG(c Chain) DAG {
	d := DAG{Name: c.Name, Quality: c.Quality, Tasks: make([]DAGTask, len(c.Tasks))}
	for i, t := range c.Tasks {
		dt := DAGTask{Task: t}
		if i > 0 {
			dt.Preds = []int{i - 1}
		}
		d.Tasks[i] = dt
	}
	return d
}
