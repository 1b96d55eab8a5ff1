package calypso

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newRT(t *testing.T, workers int, faults *FaultPlan) *Runtime {
	t.Helper()
	rt, err := New(Config{Workers: workers, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// set writes a shared variable between steps, as a program's sequential
// part would.
func (s *Store) set(key string, v Value) { s.snapshotApply(map[string]Value{key: v}) }

// readAs reads a shared variable with a type assertion.
func readAs[T any](ctx *TaskCtx, key string) (T, bool) { return GetAs[T](ctx.store, key) }

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Fatal("0-worker runtime created")
	}
}

func TestStoreBasics(t *testing.T) {
	s := newStore()
	if _, ok := s.get("x"); ok {
		t.Fatal("empty store has x")
	}
	s.set("x", 42)
	v, ok := s.get("x")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = (%v, %v)", v, ok)
	}
	if got, ok := GetAs[int](s, "x"); !ok || got != 42 {
		t.Fatalf("GetAs[int] = (%v, %v)", got, ok)
	}
	if _, ok := GetAs[string](s, "x"); ok {
		t.Fatal("GetAs with wrong type succeeded")
	}
	if _, ok := GetAs[int](s, "missing"); ok {
		t.Fatal("GetAs on missing key succeeded")
	}
	s.set("y", "hello")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestParallelSum: the canonical Calypso computation — partition an array
// over width tasks, each writes its partial result, sequential code reduces.
func TestParallelSum(t *testing.T) {
	rt := newRT(t, 4, nil)
	data := make([]int, 1000)
	total := 0
	for i := range data {
		data[i] = i * 3
		total += data[i]
	}
	rt.Store().set("data", data)

	const width = 8
	err := rt.Parallel(width, func(ctx *TaskCtx, w, n int) error {
		d, _ := readAs[[]int](ctx, "data")
		chunk := (len(d) + w - 1) / w
		lo, hi := n*chunk, (n+1)*chunk
		if hi > len(d) {
			hi = len(d)
		}
		sum := 0
		for _, v := range d[lo:hi] {
			sum += v
		}
		ctx.Write(fmt.Sprintf("partial.%d", n), sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for n := 0; n < width; n++ {
		p, ok := GetAs[int](rt.Store(), fmt.Sprintf("partial.%d", n))
		if !ok {
			t.Fatalf("partial %d missing", n)
		}
		got += p
	}
	if got != total {
		t.Fatalf("sum = %d, want %d", got, total)
	}
	m := rt.Metrics()
	if m.Steps != 1 || m.Tasks != width {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestCREWReadsSeePreStepState: a task's writes are invisible within the
// step, both to other tasks and to its own reads.
func TestCREWReadsSeePreStepState(t *testing.T) {
	rt := newRT(t, 4, nil)
	rt.Store().set("v", 1)
	err := rt.Parallel(8, func(ctx *TaskCtx, w, n int) error {
		v, ok := readAs[int](ctx, "v")
		if !ok || v != 1 {
			return fmt.Errorf("task %d read v = %v (want pre-step value 1)", n, v)
		}
		if n == 0 {
			ctx.Write("v", 2)
		}
		// Even the writer still sees the snapshot.
		if again, _ := readAs[int](ctx, "v"); again != 1 {
			return fmt.Errorf("task %d read-own-write leaked: %v", n, again)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := GetAs[int](rt.Store(), "v"); v != 2 {
		t.Fatalf("v after step = %v, want 2", v)
	}
}

func TestExclusiveWriteConflictDetected(t *testing.T) {
	rt := newRT(t, 4, nil)
	err := rt.Parallel(2, func(ctx *TaskCtx, w, n int) error {
		ctx.Write("same", n)
		return nil
	})
	if !errors.Is(err, errWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	// Conflicting steps must not corrupt the store.
	if _, ok := rt.Store().get("same"); ok {
		t.Fatal("conflicted write leaked into store")
	}
}

func TestMultipleRoutinesInOneStep(t *testing.T) {
	rt := newRT(t, 4, nil)
	step := rt.parBegin()
	step.routine(3, func(ctx *TaskCtx, w, n int) error {
		if w != 3 {
			return fmt.Errorf("width = %d, want 3", w)
		}
		ctx.Write(fmt.Sprintf("a.%d", n), n)
		return nil
	})
	step.routine(2, func(ctx *TaskCtx, w, n int) error {
		if w != 2 {
			return fmt.Errorf("width = %d, want 2", w)
		}
		ctx.Write(fmt.Sprintf("b.%d", n), n*10)
		return nil
	})
	if err := step.end(); err != nil {
		t.Fatal(err)
	}
	if rt.Store().Len() != 5 {
		t.Fatalf("store has %d keys, want 5", rt.Store().Len())
	}
	if m := rt.Metrics(); m.Tasks != 5 {
		t.Fatalf("tasks = %d, want 5", m.Tasks)
	}
}

func TestStepBuildErrors(t *testing.T) {
	rt := newRT(t, 2, nil)
	if err := rt.parBegin().end(); err == nil {
		t.Error("empty step executed")
	}
	if err := rt.parBegin().routine(0, func(*TaskCtx, int, int) error { return nil }).end(); err == nil {
		t.Error("zero-width routine accepted")
	}
	if err := rt.parBegin().routine(1, nil).end(); err == nil {
		t.Error("nil routine accepted")
	}
	s := rt.parBegin().routine(1, func(*TaskCtx, int, int) error { return nil })
	if err := s.end(); err != nil {
		t.Fatal(err)
	}
	if err := s.end(); err == nil {
		t.Error("step ended twice")
	}
}

func TestRoutineErrorAbortsStep(t *testing.T) {
	rt := newRT(t, 4, nil)
	boom := errors.New("boom")
	err := rt.Parallel(4, func(ctx *TaskCtx, w, n int) error {
		if n == 2 {
			return boom
		}
		ctx.Write(fmt.Sprintf("k%d", n), 1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if rt.Store().Len() != 0 {
		t.Fatal("failed step leaked writes")
	}
}

func TestPanicBecomesError(t *testing.T) {
	rt := newRT(t, 2, nil)
	err := rt.Parallel(2, func(ctx *TaskCtx, w, n int) error {
		if n == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

// TestEagerSchedulingDuplicates: with far more workers than tasks and a
// slow straggler, idle workers re-execute the straggler and the step
// completes with exactly-once commit semantics.
func TestEagerSchedulingDuplicates(t *testing.T) {
	rt := newRT(t, 8, nil)
	var executions int32
	start := time.Now()
	err := rt.Parallel(2, func(ctx *TaskCtx, w, n int) error {
		c := atomic.AddInt32(&executions, 1)
		// The first execution of task 1 stalls; re-executions return
		// immediately, so the step finishes long before the stall ends.
		if n == 1 && c <= 2 {
			time.Sleep(300 * time.Millisecond)
		}
		ctx.Write(fmt.Sprintf("done.%d", n), int(c))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 290*time.Millisecond {
		t.Errorf("step took %v: eager scheduling must finish before the 300ms straggler", elapsed)
	}
	m := rt.Metrics()
	if m.Executions <= m.Tasks {
		t.Fatalf("metrics = %+v: expected duplicated executions", m)
	}
	// Exactly-once: both keys present exactly once each (map semantics),
	// and the committed value is from some single execution.
	for n := 0; n < 2; n++ {
		if _, ok := rt.Store().get(fmt.Sprintf("done.%d", n)); !ok {
			t.Fatalf("task %d result missing", n)
		}
	}
}

// TestCrashMaskingCompletesStep: workers crash mid-step; eager scheduling
// finishes the work on the survivors.
func TestCrashMaskingCompletesStep(t *testing.T) {
	faults := &FaultPlan{CrashProb: 0.3, MaxCrashes: 6, Seed: 42}
	rt := newRT(t, 8, faults)
	const width = 32
	err := rt.Parallel(width, func(ctx *TaskCtx, w, n int) error {
		ctx.Write(fmt.Sprintf("r.%d", n), n*n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < width; n++ {
		v, ok := GetAs[int](rt.Store(), fmt.Sprintf("r.%d", n))
		if !ok || v != n*n {
			t.Fatalf("r.%d = (%v, %v), want %d", n, v, ok, n*n)
		}
	}
	m := rt.Metrics()
	if m.Crashes == 0 {
		t.Fatal("fault plan injected no crashes (seed-dependent; adjust seed)")
	}
	if rt.aliveWorkers() != 8-m.Crashes {
		t.Fatalf("alive = %d, want %d", rt.aliveWorkers(), 8-m.Crashes)
	}
}

// TestTransientFaultMasking: abandoned executions are retried until they
// commit.
func TestTransientFaultMasking(t *testing.T) {
	faults := &FaultPlan{TransientProb: 0.4, Seed: 7}
	rt := newRT(t, 4, faults)
	const width = 40
	err := rt.Parallel(width, func(ctx *TaskCtx, w, n int) error {
		ctx.Write(fmt.Sprintf("t.%d", n), 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Transients == 0 {
		t.Fatal("no transient faults injected (seed-dependent; adjust seed)")
	}
	if rt.Store().Len() != width {
		t.Fatalf("store has %d keys, want %d", rt.Store().Len(), width)
	}
}

// TestAllWorkersCrashFailsStep: when the fault plan is allowed to kill
// every worker, the step reports errNoWorkers instead of hanging.
func TestAllWorkersCrashFailsStep(t *testing.T) {
	faults := &FaultPlan{CrashProb: 1, MaxCrashes: 4, Seed: 1}
	rt := newRT(t, 4, faults)
	err := rt.Parallel(16, func(ctx *TaskCtx, w, n int) error {
		ctx.Write("x", 1)
		return nil
	})
	if !errors.Is(err, errNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	// The runtime is permanently dead.
	if rt.aliveWorkers() != 0 {
		t.Fatalf("alive = %d, want 0", rt.aliveWorkers())
	}
	if err := rt.Parallel(1, func(*TaskCtx, int, int) error { return nil }); !errors.Is(err, errNoWorkers) {
		t.Fatalf("next step err = %v, want ErrNoWorkers", err)
	}
}

// TestCrashesPersistAcrossSteps: a worker lost in step 1 is not back for
// step 2.
func TestCrashesPersistAcrossSteps(t *testing.T) {
	faults := &FaultPlan{CrashProb: 1, MaxCrashes: 3, Seed: 5}
	rt := newRT(t, 4, faults)
	if err := rt.Parallel(8, func(ctx *TaskCtx, w, n int) error {
		ctx.Write(fmt.Sprintf("a.%d", n), n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rt.aliveWorkers() != 1 {
		t.Fatalf("alive after step 1 = %d, want 1 (3 crashes allowed)", rt.aliveWorkers())
	}
	// Step 2 still completes on the lone survivor.
	if err := rt.Parallel(4, func(ctx *TaskCtx, w, n int) error {
		ctx.Write(fmt.Sprintf("b.%d", n), n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Store().Len() != 12 {
		t.Fatalf("store len = %d, want 12", rt.Store().Len())
	}
}

// TestDuplicateExecutionsCommitOnce: force heavy duplication and verify a
// counter incremented through the store (not the ctx) observes every
// execution, while committed state reflects exactly one.
func TestDuplicateExecutionsCommitOnce(t *testing.T) {
	rt := newRT(t, 16, nil)
	var sideEffects int32
	err := rt.Parallel(2, func(ctx *TaskCtx, w, n int) error {
		atomic.AddInt32(&sideEffects, 1) // deliberately non-idempotent side effect
		if atomic.LoadInt32(&sideEffects) < 4 {
			time.Sleep(20 * time.Millisecond) // invite duplication
		}
		ctx.Write(fmt.Sprintf("k.%d", n), n+100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		v, _ := GetAs[int](rt.Store(), fmt.Sprintf("k.%d", n))
		if v != n+100 {
			t.Fatalf("k.%d = %v", n, v)
		}
	}
	m := rt.Metrics()
	if m.Executions < m.Tasks {
		t.Fatalf("metrics = %+v: fewer executions than tasks", m)
	}
	// The non-idempotent side effect ran more than once per task (that is
	// exactly why Calypso routines must confine effects to ctx writes),
	// yet the committed state reflects a single execution per task.
	if atomic.LoadInt32(&sideEffects) < 2 {
		t.Fatalf("side effects = %d", sideEffects)
	}
}

// TestQuickParallelSumMatchesSerial: property — under random fault plans
// the parallel computation always produces the serial answer.
func TestQuickParallelSumMatchesSerial(t *testing.T) {
	f := func(seed int64, nRaw, widthRaw, workerRaw uint8, crash, transient bool) bool {
		workers := 2 + int(workerRaw%6)
		width := 1 + int(widthRaw%12)
		n := 1 + int(nRaw)
		plan := &FaultPlan{Seed: seed}
		if crash {
			plan.CrashProb = 0.2
			plan.MaxCrashes = workers - 1
		}
		if transient {
			plan.TransientProb = 0.3
		}
		rt, err := New(Config{Workers: workers, Faults: plan})
		if err != nil {
			return false
		}
		data := make([]int, n)
		want := 0
		for i := range data {
			data[i] = i ^ int(seed)
			want += data[i]
		}
		rt.Store().set("data", data)
		err = rt.Parallel(width, func(ctx *TaskCtx, w, num int) error {
			d, _ := readAs[[]int](ctx, "data")
			sum := 0
			for i := num; i < len(d); i += w {
				sum += d[i]
			}
			ctx.Write(fmt.Sprintf("p.%d", num), sum)
			return nil
		})
		if err != nil {
			return false
		}
		got := 0
		for i := 0; i < width; i++ {
			p, ok := GetAs[int](rt.Store(), fmt.Sprintf("p.%d", i))
			if !ok {
				return false
			}
			got += p
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultPlanDecideRespectsMaxCrashes(t *testing.T) {
	plan := &FaultPlan{CrashProb: 1, MaxCrashes: 2, Seed: 3}
	plan.init()
	crashes := 0
	for i := 0; i < 10; i++ {
		if plan.decide(8) == outcomeCrash {
			crashes++
		}
	}
	if crashes != 2 {
		t.Fatalf("crashes = %d, want 2 (capped)", crashes)
	}
	if plan.crashes != 2 {
		t.Fatalf("plan.crashes = %d", plan.crashes)
	}
	var nilPlan *FaultPlan
	if nilPlan.decide(4) != outcomeOK {
		t.Fatal("nil plan injected a fault")
	}
}

func TestSlowFaultDelays(t *testing.T) {
	plan := &FaultPlan{SlowProb: 1, SlowDelay: 30 * time.Millisecond, Seed: 1}
	rt := newRT(t, 1, plan)
	start := time.Now()
	if err := rt.Parallel(1, func(ctx *TaskCtx, w, n int) error {
		ctx.Write("x", 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("slow fault did not delay execution")
	}
}

// TestSlowWorkerMaskedByEagerScheduling is the paper's Calypso claim that
// eager scheduling masks slow executions.  The plan's seed makes its first
// draw slow and at most one more of the first 512 (every execution a step
// of width 8 on 4 workers may make, at 16 × 4 per task): the step's first
// execution is a straggler, and no more than two of the four workers ever
// sleep, so the others' eager duplicates commit every task long before one
// slow execution would end.
func TestSlowWorkerMaskedByEagerScheduling(t *testing.T) {
	const (
		workers, width = 4, 8
		slow           = 2 * time.Second
	)
	plan := func() *FaultPlan { return &FaultPlan{SlowProb: 0.02, SlowDelay: slow, Seed: 71214} }
	draws := plan()
	slowDraws := 0
	for i := 0; i < width*16*workers; i++ {
		if draws.decide(workers) == outcomeSlow {
			slowDraws++
		} else if i == 0 {
			t.Fatal("the seed's first draw is not slow")
		}
	}
	if slowDraws > 2 {
		t.Fatalf("the seed draws %d slow executions, want at most 2", slowDraws)
	}

	rt := newRT(t, workers, plan())
	start := time.Now()
	err := rt.Parallel(width, func(ctx *TaskCtx, w, n int) error {
		for deadline := time.Now().Add(time.Millisecond); time.Now().Before(deadline); {
		}
		ctx.Write(fmt.Sprintf("r.%d", n), n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > slow/4 {
		t.Fatalf("step took %v, a slow execution takes %v: the straggler was not masked", elapsed, slow)
	}
	if rt.Store().Len() != width {
		t.Fatalf("results = %d, want %d", rt.Store().Len(), width)
	}
}
