package calypso

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookLog captures TraceHooks callbacks under a mutex (workers call
// TaskExec and WorkerFault concurrently).
type hookLog struct {
	mu         sync.Mutex
	starts     []int // tasks per step
	dones      []int // step ids
	execs      int
	committed  int
	faults     map[string]int
	lastStepID int
}

func (l *hookLog) hooks() TraceHooks {
	return TraceHooks{
		StepStart: func(step, tasks int) {
			l.mu.Lock()
			l.starts = append(l.starts, tasks)
			l.lastStepID = step
			l.mu.Unlock()
		},
		StepDone: func(step int, d time.Duration, err error) {
			l.mu.Lock()
			l.dones = append(l.dones, step)
			l.mu.Unlock()
		},
		TaskExec: func(step, worker, task, attempt int, start time.Time, d time.Duration, committed bool) {
			l.mu.Lock()
			l.execs++
			if committed {
				l.committed++
			}
			l.mu.Unlock()
		},
		WorkerFault: func(step, worker int, kind string) {
			l.mu.Lock()
			if l.faults == nil {
				l.faults = map[string]int{}
			}
			l.faults[kind]++
			l.mu.Unlock()
		},
	}
}

func TestTraceHooksFireOnCleanRun(t *testing.T) {
	var log hookLog
	rt, err := New(Config{Workers: 3, Hooks: log.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := rt.Parallel(5, func(ctx *TaskCtx, width, number int) error {
			ctx.Write(fmt.Sprintf("s%dk%d", s, number), number)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.starts) != 2 || len(log.dones) != 2 {
		t.Fatalf("starts/dones = %v/%v, want 2 each", log.starts, log.dones)
	}
	if log.starts[0] != 5 || log.starts[1] != 5 {
		t.Fatalf("task counts = %v, want [5 5]", log.starts)
	}
	if log.dones[0] == log.dones[1] {
		t.Fatalf("step ids not unique: %v", log.dones)
	}
	if log.execs < 10 {
		t.Fatalf("execs = %d, want >= 10", log.execs)
	}
	// Exactly-once semantics: one commit per task.
	if log.committed != 10 {
		t.Fatalf("committed = %d, want 10", log.committed)
	}
	if len(log.faults) != 0 {
		t.Fatalf("faults on a clean run: %v", log.faults)
	}
}

func TestTraceHooksObserveFaults(t *testing.T) {
	var log hookLog
	rt, err := New(Config{
		Workers: 4,
		Faults:  &FaultPlan{TransientProb: 0.5, CrashProb: 0.1, MaxCrashes: 2, Seed: 3},
		Hooks:   log.hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(16, func(ctx *TaskCtx, width, number int) error {
		ctx.Write(fmt.Sprintf("k%d", number), number)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.committed != 16 {
		t.Fatalf("committed = %d, want 16 (exactly once despite faults)", log.committed)
	}
	// TaskExec fires only for executions that reach the commit race;
	// faulted attempts surface through WorkerFault instead.
	if log.execs < 16 {
		t.Fatalf("execs = %d, want >= 16", log.execs)
	}
	var total int
	for _, n := range log.faults {
		total += n
	}
	if total == 0 {
		t.Fatalf("no faults recorded under injection: %v", log.faults)
	}
	m := rt.Metrics()
	if int(m.Transients) != log.faults["transient"] {
		t.Fatalf("transient hook count %d != metrics %d", log.faults["transient"], m.Transients)
	}
	if int(m.Crashes) != log.faults["crash"] {
		t.Fatalf("crash hook count %d != metrics %d", log.faults["crash"], m.Crashes)
	}
}

// TestHooksAndMetricsAgreeOnAStep forces the two ways an event could reach
// the hooks and not Metrics, or Metrics and not the hooks: the last winner's
// TaskExec running on past the step's end, and a straggler drawing a fault
// once the step has ended.  Neither may make the step wait for a straggler.
func TestHooksAndMetricsAgreeOnAStep(t *testing.T) {
	t.Run("the winner's TaskExec", func(t *testing.T) {
		var log hookLog
		hooks := log.hooks()
		exec := hooks.TaskExec
		hooks.TaskExec = func(step, worker, task, attempt int, start time.Time, d time.Duration, committed bool) {
			time.Sleep(20 * time.Millisecond) // a slow hook: the step still ends after it
			exec(step, worker, task, attempt, start, d, committed)
		}
		rt, err := New(Config{Workers: 1, Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Parallel(1, func(*TaskCtx, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		if log.execs != 1 || log.committed != 1 || len(log.dones) != 1 {
			t.Fatalf("when the step returned the hooks had seen %d executions, %d commits and %d step ends; want 1 each",
				log.execs, log.committed, len(log.dones))
		}
	})

	t.Run("a straggler's fault", func(t *testing.T) {
		// Two workers, one task: the first fault draw is no fault, and its
		// worker's execution waits in the body until the other worker, on
		// its eager duplicate, is at the second draw, which is held there
		// until the step has returned and then is a transient fault.
		src := &heldSource{atSecond: make(chan struct{}), release: make(chan struct{})}
		plan := &FaultPlan{TransientProb: 0.5}
		plan.rng = rand.New(src)
		var log hookLog
		hooks := log.hooks()
		fault := hooks.WorkerFault
		faulted := make(chan struct{}, 1)
		hooks.WorkerFault = func(step, worker int, kind string) {
			fault(step, worker, kind)
			faulted <- struct{}{}
		}
		rt, err := New(Config{Workers: 2, Faults: plan, Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Parallel(1, func(*TaskCtx, int, int) error {
			<-src.atSecond
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		close(src.release)
		select {
		case <-faulted:
		case <-time.After(100 * time.Millisecond): // a dropped fault fires no hook
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		if m := rt.Metrics(); m.Transients != log.faults["transient"] || m.Executions != 2 || m.Duplicates != 1 {
			t.Fatalf("metrics %+v, hooks saw %d transient faults; want them to agree, over 2 executions and 1 duplicate",
				m, log.faults["transient"])
		}
	})
}

// heldSource is a rand.Source whose first draw is no fault at probability
// 0.5 and whose second, a fault, is held until release is closed, atSecond
// being closed once it is reached.
type heldSource struct {
	draws             atomic.Int64
	atSecond, release chan struct{}
}

func (s *heldSource) Int63() int64 {
	if s.draws.Add(1) == 2 {
		close(s.atSecond)
		<-s.release
		return 0
	}
	return 3 << 61 // 0.75
}

func (s *heldSource) Seed(int64) {}

func TestZeroHooksDisableObservation(t *testing.T) {
	rt, err := New(Config{Workers: 2}) // zero-value Hooks
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(3, func(ctx *TaskCtx, width, number int) error {
		ctx.Write(fmt.Sprintf("k%d", number), number)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
