package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// fig4 is the paper's Figure-4 tunable job (x = 16, t = 25, alpha = 1/4,
// laxity 1/2) released at r: two chains of equal area and opposite shape,
// which tie on finish time on an idle machine.
func fig4(id int, r float64) Job {
	return Job{ID: id, Name: "fig4", Release: r, Chains: []Chain{
		chain2("shape1", 16, 25, r+200, 4, 100, r+250),
		chain2("shape2", 4, 100, r+200, 16, 25, r+250),
	}}
}

func clonePlacement(pl *Placement) *Placement {
	c := *pl
	c.Tasks = append([]TaskPlacement(nil), pl.Tasks...)
	return &c
}

// TestPlannerHandsOutNoScratch: what Plan, PlanKeyed and PlaceChain return
// is the caller's — later planning on the same scheduler, granted or
// rejected, writes none of it — so a plan made now commits as it was made.
func TestPlannerHandsOutNoScratch(t *testing.T) {
	s := NewScheduler(32, 0, nil)
	placed, ok := s.PlaceChain(fig4(0, 0).Chains[1], 0)
	if !ok {
		t.Fatal("PlaceChain on an idle machine failed")
	}
	pl0, key0, ok := s.PlanKeyed(fig4(0, 0))
	if !ok {
		t.Fatal("PlanKeyed on an idle machine failed")
	}
	pl1, ok := s.Plan(fig4(1, 3))
	if !ok {
		t.Fatal("Plan on an idle machine failed")
	}
	wantPlaced := append([]TaskPlacement(nil), placed...)
	wantPl0, wantPl1 := clonePlacement(pl0), clonePlacement(pl1)
	wantPrefix := append([]float64(nil), key0.Prefix...)

	// Later planning: another shape, another release, a job too wide
	// to place, each through the same scratch.
	long := fig4(2, 7)
	long.Chains[0].Tasks = append(long.Chains[0].Tasks, long.Chains[0].Tasks...)
	for i := range long.Chains[0].Tasks {
		long.Chains[0].Tasks[i].Deadline = 1000
	}
	if _, ok := s.Plan(long); !ok {
		t.Fatal("Plan(j2) failed")
	}
	if _, _, ok := s.PlanKeyed(fig4(3, 11)); !ok {
		t.Fatal("PlanKeyed(j3) failed")
	}
	wide := fig4(4, 13)
	wide.Chains[0].Tasks[1].Procs = 64
	wide.Chains[1].Tasks[1].Procs = 64
	if _, ok := s.Plan(wide); ok {
		t.Fatal("a 64-wide task was planned on 32 processors")
	}

	if !reflect.DeepEqual(placed, wantPlaced) {
		t.Fatalf("PlaceChain result rewritten by later planning:\n got  %+v\n want %+v", placed, wantPlaced)
	}
	if !reflect.DeepEqual(pl0, wantPl0) || !reflect.DeepEqual(pl1, wantPl1) {
		t.Fatalf("placement rewritten by later planning:\n got  %+v %+v\n want %+v %+v", pl0, pl1, wantPl0, wantPl1)
	}
	if !reflect.DeepEqual(key0.Prefix, wantPrefix) {
		t.Fatalf("PlanKey.Prefix rewritten by later planning: got %v, want %v", key0.Prefix, wantPrefix)
	}
	if err := s.Commit(fig4(1, 3), pl1); err != nil {
		t.Fatalf("commit of the earlier plan: %v", err)
	}
	if !reflect.DeepEqual(pl1, wantPl1) {
		t.Fatalf("placement rewritten by its own commit: %+v", pl1)
	}
	// What was committed is what was planned: planning the same job
	// again must now avoid exactly those slots.
	for _, tp := range wantPl1.Tasks {
		if free := s.Profile().MinAvailOn(tp.Start, tp.Finish); free > 32-tp.Procs {
			t.Fatalf("task %+v not reserved: %d processors free over its slot", tp, free)
		}
	}
}

// comparePrefixMaterialised is the prefix criterion as it was before the
// planner had scratch — over cumulative sums built per chain — kept as the
// oracle the lock-step comparePrefix is held to.
func comparePrefixMaterialised(a, b []float64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !timeEq(a[i], b[i]) {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func materialisedPrefix(tasks []TaskPlacement) []float64 {
	prefix := make([]float64, len(tasks))
	var cum float64
	for i, tp := range tasks {
		cum += float64(tp.Procs) * tp.duration()
		prefix[i] = cum
	}
	return prefix
}

// TestComparePrefixMatchesMaterialised: summing the two prefixes in
// lock-step gives the verdict comparing the materialised ones gave, on
// placements drawn so that ties, near-ties around Eps and unequal lengths
// are all common.
func TestComparePrefixMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	chain := func() []TaskPlacement {
		out := make([]TaskPlacement, rng.Intn(6))
		at := float64(rng.Intn(4))
		for i := range out {
			d := float64(1 + rng.Intn(3))
			switch rng.Intn(4) {
			case 0:
				d += Eps * (rng.Float64()*4 - 2)
			case 1:
				d /= 3
			}
			out[i] = TaskPlacement{Task: i, Start: at, Finish: at + d, Procs: 1 + rng.Intn(3)}
			at += d
		}
		return out
	}
	verdicts := map[int]int{}
	for i := 0; i < 200000; i++ {
		a, b := chain(), chain()
		got, want := comparePrefix(a, b), comparePrefixMaterialised(materialisedPrefix(a), materialisedPrefix(b))
		if got != want {
			t.Fatalf("comparePrefix(%+v, %+v) = %d, materialised %d", a, b, got, want)
		}
		verdicts[want]++
	}
	if verdicts[-1] < 1000 || verdicts[0] < 1000 || verdicts[1] < 1000 {
		t.Fatalf("degenerate draw: verdicts %v", verdicts)
	}
}

// TestPlanMatchesMaterialisedReference replays a tie-heavy stream under the
// two policies whose third criterion is the prefix, choosing every job's
// chain twice: by Plan, and by the loop as it stood before — every chain
// placed into fresh memory, its prefix materialised.  Chain and placement
// agree for every job.
func TestPlanMatchesMaterialisedReference(t *testing.T) {
	for _, policy := range []TieBreak{tieBreakPaper, TieBreakUtilFirst} {
		s := NewScheduler(32, 0, &Options{TieBreak: policy})
		type refKey struct {
			chainKey
			prefix []float64
		}
		better := func(a, b *refKey) bool {
			if policy == TieBreakUtilFirst {
				if ua, ub := s.keyUtil(&a.chainKey), s.keyUtil(&b.chainKey); !timeEq(ua, ub) {
					return ua > ub
				}
				if c := comparePrefixMaterialised(a.prefix, b.prefix); c != 0 {
					return c < 0
				}
				return timeLess(a.finish, b.finish)
			}
			if !timeEq(a.finish, b.finish) {
				return a.finish < b.finish
			}
			if ua, ub := s.keyUtil(&a.chainKey), s.keyUtil(&b.chainKey); !timeEq(ua, ub) {
				return ua > ub
			}
			return comparePrefixMaterialised(a.prefix, b.prefix) < 0
		}
		// reference also reports whether the prefix criterion was reached
		// and told two chains apart.
		reference := func(job Job) (best int, bestTasks []TaskPlacement, prefixDecided bool) {
			best = -1
			var bestKey refKey
			for ci, c := range job.Chains {
				tasks, ok := s.PlaceChain(c, job.Release)
				if !ok {
					continue
				}
				key := refKey{chainSortKey(tasks, c, job.Release), materialisedPrefix(tasks)}
				if best >= 0 && timeEq(key.finish, bestKey.finish) && timeEq(key.area, bestKey.area) &&
					comparePrefixMaterialised(key.prefix, bestKey.prefix) != 0 {
					prefixDecided = true
				}
				if best < 0 || better(&key, &bestKey) {
					best, bestTasks, bestKey = ci, tasks, key
				}
			}
			return best, bestTasks, prefixDecided
		}

		// Two or three chains off a small grid of widths and durations,
		// released on whole units; every other job's chains are one
		// chain's tasks in different orders, which tie on area always and
		// on finish often, and differ in prefix.
		rng := rand.New(rand.NewSource(1999))
		draw := func(id int, r float64) Job {
			job := Job{ID: id, Release: r, Chains: make([]Chain, 2+rng.Intn(2))}
			for ci := range job.Chains {
				tasks := make([]Task, 2+rng.Intn(2))
				for ti := range tasks {
					tasks[ti] = Task{Procs: 2 << rng.Intn(4), Duration: float64(int(5) << rng.Intn(3)), Deadline: r + 120}
				}
				if ci > 0 && id%2 == 0 {
					tasks = append([]Task(nil), job.Chains[0].Tasks...)
					rng.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
				}
				job.Chains[ci] = Chain{Tasks: tasks, Quality: 1}
			}
			return job
		}
		now := 0.0
		chosen := [3]int{}
		rejected, decided := 0, 0
		for i := 0; i < 5000; i++ {
			now += float64(rng.Intn(8))
			s.Observe(now)
			job := draw(i, now)
			wantChain, wantTasks, prefixDecided := reference(job)
			pl, ok := s.Plan(job)
			if ok != (wantChain >= 0) {
				t.Fatalf("%v job %d: Plan ok=%v, reference chain %d", policy, i, ok, wantChain)
			}
			if !ok {
				rejected++
				continue
			}
			if pl.Chain != wantChain || !reflect.DeepEqual(pl.Tasks, wantTasks) {
				t.Fatalf("%v job %d: Plan chose chain %d %+v, reference chain %d %+v", policy, i, pl.Chain, pl.Tasks, wantChain, wantTasks)
			}
			if prefixDecided {
				decided++
			}
			chosen[pl.Chain]++
			if err := s.Commit(job, pl); err != nil {
				t.Fatal(err)
			}
		}
		if chosen[0] < 100 || chosen[1] < 100 || chosen[2] < 100 || rejected < 100 || decided < 100 {
			t.Fatalf("policy %d: degenerate stream: chains chosen %v, %d rejected, %d decided by prefix", policy, chosen, rejected, decided)
		}
	}
}

// TestPlanAllocationBudget is the planner's counted contract with no hooks
// installed, as equalities: a granted Figure-4 job costs Plan's caller its
// Placement and that placement's tasks, whichever chain wins and however
// many lose, and costs PlanInto's caller, who brought both, nothing; a
// rejected one costs neither anything.
func TestPlanAllocationBudget(t *testing.T) {
	const runs = 300
	jobs := make([]Job, runs+1) // AllocsPerRun warms up with one extra call
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	for i := range jobs {
		now += rng.ExpFloat64() * 50 // half of 32 processors on average
		jobs[i] = fig4(i, now)
		for c := range jobs[i].Chains { // and time enough that none is refused
			jobs[i].Chains[c].Tasks[0].Deadline, jobs[i].Chains[c].Tasks[1].Deadline = now+2000, now+2000
		}
	}
	wide := fig4(0, 0)
	wide.Chains[0].Tasks[1].Procs, wide.Chains[1].Tasks[0].Procs = 64, 64
	var kept struct {
		pl    Placement
		tasks [4]TaskPlacement
	}
	for _, tc := range []struct {
		name string
		plan func(*Scheduler, Job) (*Placement, bool)
		want float64
	}{
		{"Plan", (*Scheduler).Plan, 2},
		{"PlanInto", func(s *Scheduler, job Job) (*Placement, bool) {
			return &kept.pl, s.PlanInto(job, &kept.pl, kept.tasks[:0])
		}, 0},
	} {
		s := NewScheduler(32, 0, nil)
		i := 0
		granted := testing.AllocsPerRun(runs, func() {
			s.Observe(jobs[i].Release)
			pl, ok := tc.plan(s, jobs[i])
			if !ok || s.Commit(jobs[i], pl) != nil {
				t.Fatalf("job %d not granted", i)
			}
			i++
		})
		if st := s.Stats(); len(st.TunableChosen) < 2 || st.TunableChosen[0] < 10 || st.TunableChosen[1] < 10 {
			t.Fatalf("degenerate stream: chains chosen %v", st.TunableChosen)
		}
		if granted != tc.want {
			t.Errorf("a granted job costs %v allocations in %s+Commit, want %v", granted, tc.name, tc.want)
		}
		rejected := testing.AllocsPerRun(runs, func() {
			if _, ok := tc.plan(s, wide); ok {
				t.Fatal("a 64-wide task was planned on 32 processors")
			}
		})
		if rejected != 0 {
			t.Errorf("a rejected job costs %v allocations in %s, want 0", rejected, tc.name)
		}
	}
	if &kept.pl.Tasks[0] != &kept.tasks[0] {
		t.Error("PlanInto left the tasks somewhere other than the array it was handed")
	}
}
