package core_test

import (
	"fmt"
	"math"
	"testing"

	"milan/internal/core"
	"milan/internal/workload"
)

// The deep-backlog stream is the served benchmark's deep_backlog workload
// driven straight into a core.Scheduler: identical Figure-4 jobs at laxity
// 0.98 and 1.15x offered load fill the 1200-unit horizon with ~3270 live
// profile segments, the clock advances before every 8th arrival to the
// release of the arrival 8 back.  It is where an admission's cost used to grow
// with the backlog.
const (
	backlogProcs        = 128
	backlogMeanGap      = 0.215
	backlogObserveEvery = 8
)

var backlogJob = workload.FigureJob{X: 2, T: 8, Alpha: 0.5, Laxity: 0.98}

// backlogStream feeds n jobs of the stream to each scheduler in turn and calls
// decided with job i's placements (nil where rejected), one per scheduler.
func backlogStream(n int, seed int64, scheds []*core.Scheduler, decided func(i int, pls []*core.Placement)) {
	arr := workload.NewPoisson(backlogMeanGap, seed)
	var releases [backlogObserveEvery]float64
	pls := make([]*core.Placement, len(scheds))
	now := 0.0
	for i := 0; i < n; i++ {
		now += arr.Next()
		if i%backlogObserveEvery == 0 && i > 0 {
			for _, s := range scheds {
				s.Observe(releases[0])
			}
		}
		releases[i%backlogObserveEvery] = now
		job := backlogJob.Job(i, now, workload.Tunable)
		for k, s := range scheds {
			pls[k], _ = s.Admit(job)
		}
		decided(i, pls)
	}
}

// TestDeepBacklogIndexSteadyState: once the backlog has filled the horizon,
// admissions and clock advances maintain the index in place; a full rebuild
// happens only when the profile runs out of tail slots, far less than once in
// 256 operations.
func TestDeepBacklogIndexSteadyState(t *testing.T) {
	const warmup, measured = 16384, 16384
	s := core.NewScheduler(backlogProcs, 0, nil)
	var atWarm core.IndexStats
	deepest := 0
	backlogStream(warmup+measured, 2, []*core.Scheduler{s}, func(i int, _ []*core.Placement) {
		if i == warmup-1 {
			atWarm = s.IndexStats()
		}
		deepest = max(deepest, s.Profile().Segments())
	})
	if deepest < 3000 {
		t.Fatalf("backlog only reached %d segments, want >= 3000", deepest)
	}
	// One admission plus its share of the clock advances is one operation.
	rebuilds := s.IndexStats().Rebuilds - atWarm.Rebuilds
	if limit := int64(measured / 256); rebuilds > limit {
		t.Fatalf("%d index rebuilds over %d steady-state operations, want <= %d", rebuilds, measured, limit)
	}
	if err := s.Profile().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeepBacklogLatticeIsBounded puts the planner's worst case on record.
// The fill drawn from seed 0 packs the horizon into a lattice of holes high
// enough for a task but too short for it, and the earliest-fit search pays
// two descents for each one it walks past; seed 2's fill has almost none.
// Descent counts are exact, so the bounds are today's values per admission
// (seed 0: 202.3 descents, 1 536 steps; seed 2: 3.7 and 54.4) with a little
// room: the defect may shrink, not grow.
func TestDeepBacklogLatticeIsBounded(t *testing.T) {
	const fill, measured = 32768, 8192
	for _, tc := range []struct {
		seed                 int64
		descents, stepsPerOp float64
	}{
		{seed: 0, descents: 205, stepsPerOp: 1560},
		{seed: 2, descents: 4, stepsPerOp: 56},
	} {
		s := core.NewScheduler(backlogProcs, 0, nil)
		var atFill core.IndexStats
		backlogStream(fill+measured, tc.seed, []*core.Scheduler{s}, func(i int, _ []*core.Placement) {
			if i == fill-1 {
				atFill = s.IndexStats()
			}
		})
		end := s.IndexStats()
		descents := float64(end.Descents-atFill.Descents) / measured
		steps := float64(end.DescentSteps-atFill.DescentSteps) / measured
		t.Logf("fill seed %d: %.1f descents, %.1f descent steps per admission", tc.seed, descents, steps)
		if descents > tc.descents || steps > tc.stepsPerOp {
			t.Errorf("fill seed %d: %.1f descents and %.1f steps per admission, want at most %.0f and %.0f",
				tc.seed, descents, steps, tc.descents, tc.stepsPerOp)
		}
	}
}

// BenchmarkDeepBacklog times one admission of the deep-backlog stream, with
// its share of the clock advances, once the fill has packed the horizon:
// fill=2 is the seed the served benchmark pins, fill=0 the lattice of
// too-short holes.  Descents and descent steps per admission are exact
// counts, whatever the machine.
func BenchmarkDeepBacklog(b *testing.B) {
	const fill = 32768
	for _, seed := range []int64{2, 0} {
		b.Run(fmt.Sprintf("fill=%d", seed), func(b *testing.B) {
			s := core.NewScheduler(backlogProcs, 0, nil)
			var atFill core.IndexStats
			b.ReportAllocs()
			backlogStream(fill+b.N, seed, []*core.Scheduler{s}, func(i int, _ []*core.Placement) {
				if i == fill-1 {
					atFill = s.IndexStats()
					b.ResetTimer()
				}
			})
			b.StopTimer()
			end := s.IndexStats()
			b.ReportMetric(float64(end.Descents-atFill.Descents)/float64(b.N), "descents/op")
			b.ReportMetric(float64(end.DescentSteps-atFill.DescentSteps)/float64(b.N), "descent-steps/op")
		})
	}
}

// TestDeepBacklogIndexedMatchesLinear runs the stream through the default
// (indexed, incrementally maintained) scheduler and through a
// ProfileIndexOff scheduler on the linear reference queries, and requires
// every decision and every placed task to agree bit for bit: on seed 2's
// fill and on seed 0's, the lattice of too-short holes.
func TestDeepBacklogIndexedMatchesLinear(t *testing.T) {
	jobs := 40960
	if testing.Short() {
		jobs = 28672 // fills the horizon and starts rejecting
	}
	for _, seed := range []int64{2, 0} {
		t.Run(fmt.Sprintf("fill=%d", seed), func(t *testing.T) { indexedMatchesLinear(t, jobs, seed) })
	}
}

func indexedMatchesLinear(t *testing.T, jobs int, seed int64) {
	indexed := core.NewScheduler(backlogProcs, 0, nil)
	linear := core.NewScheduler(backlogProcs, 0, &core.Options{ProfileIndex: core.ProfileIndexOff})
	deepest, admitted := 0, 0
	backlogStream(jobs, seed, []*core.Scheduler{indexed, linear}, func(i int, pls []*core.Placement) {
		got, want := pls[0], pls[1]
		if (got == nil) != (want == nil) {
			t.Fatalf("job %d: indexed admitted=%v, linear admitted=%v", i, got != nil, want != nil)
		}
		if got == nil {
			return
		}
		admitted++
		if got.Chain != want.Chain || len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("job %d: indexed chose chain %d (%d tasks), linear chain %d (%d tasks)",
				i, got.Chain, len(got.Tasks), want.Chain, len(want.Tasks))
		}
		for k, g := range got.Tasks {
			w := want.Tasks[k]
			if g.Task != w.Task || g.Procs != w.Procs ||
				math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
				math.Float64bits(g.Finish) != math.Float64bits(w.Finish) {
				t.Fatalf("job %d task %d: indexed %+v, linear %+v", i, k, g, w)
			}
		}
		deepest = max(deepest, indexed.Profile().Segments())
		if i%4096 == 0 {
			if err := indexed.Profile().CheckInvariants(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	})
	if deepest < 3000 {
		t.Fatalf("backlog only reached %d segments, want >= 3000", deepest)
	}
	if admitted == 0 || admitted == jobs {
		t.Fatalf("admitted %d of %d: the stream should both admit and reject", admitted, jobs)
	}
	if a, b := indexed.Profile().String(), linear.Profile().String(); a != b {
		t.Fatal("final profiles differ")
	}
	if a, b := indexed.BusyUpTo(math.Inf(1)), linear.BusyUpTo(math.Inf(1)); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("busy integral: indexed %.17g, linear %.17g", a, b)
	}
}

// TestPlanKeyUtilLazyMatchesEager: the utilization PlanKeyed reports, now
// computed on demand, equals bit for bit the formula planning used to
// evaluate for every feasible chain: existing reservations over
// [release, finish) plus the plan's own area, over capacity times window.
func TestPlanKeyUtilLazyMatchesEager(t *testing.T) {
	s := core.NewScheduler(32, 0, nil)
	arr := workload.NewPoisson(12, 11) // 83% offered load
	fig := workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.7}
	now, keyed := 0.0, 0
	for i := 0; i < 4000; i++ {
		now += arr.Next()
		if i%8 == 0 {
			s.Observe(now)
		}
		job := fig.Job(i, now, workload.Tunable)
		pl, key, ok := s.PlanKeyed(job)
		if !ok {
			continue
		}
		p := s.Profile()
		finish := pl.Finish()
		want := (p.BusyOn(math.Max(job.Release, p.Origin()), finish) + pl.Area()) /
			(float64(s.Procs()) * (finish - job.Release))
		if math.Float64bits(key.Util) != math.Float64bits(want) || key.Finish != finish {
			t.Fatalf("job %d: PlanKey{Finish %.17g, Util %.17g}, eager formula (%.17g, %.17g)",
				i, key.Finish, key.Util, finish, want)
		}
		// Plan must choose the same placement without ever needing the key.
		if pl2, ok := s.Plan(job); !ok || pl2.Chain != pl.Chain || pl2.Start() != pl.Start() || pl2.Finish() != finish {
			t.Fatalf("job %d: Plan and PlanKeyed disagree", i)
		}
		if err := s.Commit(job, pl); err != nil {
			t.Fatal(err)
		}
		keyed++
	}
	if keyed < 1000 {
		t.Fatalf("only %d plans keyed", keyed)
	}
}
