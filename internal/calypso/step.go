package calypso

import (
	"fmt"
	"sync"
	"time"
)

// TaskCtx is the execution context of one task instance.  Reads see the
// shared store as of the beginning of the step (CREW semantics: updates are
// visible only at the end of the step); writes are buffered privately and
// committed exactly once even if the task executes several times.
type TaskCtx struct {
	// Width is the number of sibling tasks of this routine; Number is this
	// task's index in [0, Width).
	Width  int
	Number int
	// Worker identifies the worker executing this attempt (for tracing).
	Worker int

	store  *Store
	writes map[string]Value
}

// Read returns the value of a shared variable as of the step's beginning.
func (ctx *TaskCtx) Read(key string) (Value, bool) { return ctx.store.get(key) }

// Write buffers an update to a shared variable; it becomes visible to other
// tasks only after the step ends.
func (ctx *TaskCtx) Write(key string, v Value) { ctx.writes[key] = v }

// routine is one routine statement of a parallel step.
type routine struct {
	width int
	fn    RoutineFunc
}

// step is a parallel step under construction (parbegin ... parend).
type step struct {
	rt       *Runtime
	routines []routine
	buildErr error
	ended    bool
}

// parBegin opens a parallel step.  Add routines, then call End to execute.
func (rt *Runtime) parBegin() *step { return &step{rt: rt} }

// routine adds `width` task instances of fn to the step (the paper's
// `routine [int-exp](int width, int number)` construct).  It returns the
// step for chaining.
func (s *step) routine(width int, fn RoutineFunc) *step {
	switch {
	case s.buildErr != nil:
	case width < 1:
		s.buildErr = fmt.Errorf("calypso: routine width %d (need >= 1)", width)
	case fn == nil:
		s.buildErr = fmt.Errorf("calypso: nil routine body")
	default:
		s.routines = append(s.routines, routine{width: width, fn: fn})
	}
	return s
}

// Parallel is shorthand for a single-routine step executed immediately.
func (rt *Runtime) Parallel(width int, fn RoutineFunc) error {
	return rt.parBegin().routine(width, fn).end()
}

// task is one expanded task instance with its commit state.
type task struct {
	id        int
	width     int
	number    int
	fn        RoutineFunc
	committed bool
	attempts  int
	writes    map[string]Value // the winning execution's buffered writes
}

// dispatcher coordinates eager scheduling of one step's tasks.
type dispatcher struct {
	mu        sync.Mutex
	tasks     []*task
	fresh     int // index of next never-attempted task
	remaining int // uncommitted task count
	failed    error
	rr        int           // round-robin cursor for duplicate selection
	done      chan struct{} // closed when the step completes or fails
	stats     stepStats

	// A report (an event counted into stats and passed to its hook) joins
	// reports while the step is open; end closes the step and waits for the
	// reports under way, but not for the executions behind them.  So an
	// event is in both the hooks and Metrics or in neither.
	reports sync.WaitGroup
	closed  bool // the step's stats are taken
}

// stepStats counts events within one step; flushed into Runtime.Metrics
// when the step ends (events from executions that outlive the step are
// dropped, and so are their hooks).
type stepStats struct {
	execs, dups, wasted, transients, crashed int
}

// finish closes done exactly once.
func (d *dispatcher) finish() {
	select {
	case <-d.done:
	default:
		close(d.done)
	}
}

// next hands the calling worker a task to execute, counted as an
// execution: fresh tasks first, then eager duplicates of uncommitted ones.
// It returns nil when the step is complete or has failed.
func (d *dispatcher) next(maxAttempts int) (*task, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil || d.remaining == 0 {
		return nil, 0, d.failed
	}
	if d.fresh < len(d.tasks) {
		t := d.tasks[d.fresh]
		d.fresh++
		t.attempts++
		d.stats.execs++
		return t, t.attempts, nil
	}
	// Eager scheduling: duplicate an uncommitted task (round-robin so the
	// duplicates spread over the stragglers).
	n := len(d.tasks)
	for i := 0; i < n; i++ {
		t := d.tasks[(d.rr+i)%n]
		if t.committed {
			continue
		}
		d.rr = (d.rr + i + 1) % n
		t.attempts++
		if t.attempts > maxAttempts {
			d.failed = fmt.Errorf("%w: task %d after %d executions", errTooManyAttempts, t.id, t.attempts)
			return nil, 0, d.failed
		}
		d.stats.execs++
		d.stats.dups++
		return t, t.attempts, nil
	}
	return nil, 0, nil // raced with the last commit
}

// commit records an execution's writes; the first completer wins.
// It reports whether this execution won.
func (d *dispatcher) commit(t *task, writes map[string]Value) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.committed || d.failed != nil {
		return false
	}
	t.committed = true
	t.writes = writes
	d.remaining--
	if d.remaining == 0 {
		d.finish()
	}
	return true
}

// report counts an event of the step into *count (nil: none) and calls
// hook, and reports true, or, once the step has been closed, does neither
// and reports false.
func (d *dispatcher) report(count *int, hook func()) bool {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false
	}
	if count != nil {
		*count++
	}
	d.reports.Add(1)
	d.mu.Unlock()
	defer d.reports.Done()
	hook()
	return true
}

// close ends the step's reports and waits for those under way.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.reports.Wait()
}

// fail aborts the step with the given error (first failure wins).
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed == nil {
		d.failed = err
	}
	d.finish()
}

// end executes the step to completion: all tasks committed exactly once,
// then all writes merged into the shared store, enforcing exclusive-write
// semantics.  End returns an error if the step cannot complete (every
// worker crashed, a task kept failing, a routine returned an error or two
// tasks wrote the same variable).
func (s *step) end() (err error) {
	if s.ended {
		return fmt.Errorf("calypso: step already ended")
	}
	s.ended = true
	if s.buildErr != nil {
		return s.buildErr
	}
	if len(s.routines) == 0 {
		return fmt.Errorf("calypso: empty parallel step")
	}
	rt := s.rt
	hooks := rt.cfg.Hooks

	d := &dispatcher{done: make(chan struct{})}
	id := 0
	for _, r := range s.routines {
		for n := 0; n < r.width; n++ {
			d.tasks = append(d.tasks, &task{id: id, width: r.width, number: n, fn: r.fn})
			id++
		}
	}
	d.remaining = len(d.tasks)

	// Crashed workers stay dead across steps: the step runs on however
	// many workers the program still has.
	workers := rt.aliveWorkers()
	if workers == 0 {
		return fmt.Errorf("%w: none alive at step start", errNoWorkers)
	}

	stepID := rt.nextStepID()
	if hooks.StepStart != nil {
		hooks.StepStart(stepID, len(d.tasks))
	}
	if hooks.StepDone != nil {
		stepBegan := time.Now()
		defer func() { hooks.StepDone(stepID, time.Since(stepBegan), err) }()
	}

	// Executions per task are bounded at 16 per configured worker:
	// generous, yet a step still ends if injected fault rates are extreme.
	maxAttempts := 16 * rt.cfg.Workers
	var aliveMu sync.Mutex
	alive := workers

	// fault reports an injected fault of the worker's, or reports false
	// when its step has ended.
	fault := func(wid int, count *int, kind string) bool {
		return d.report(count, func() {
			if hooks.WorkerFault != nil {
				hooks.WorkerFault(stepID, wid, kind)
			}
		})
	}
	worker := func(wid int) {
		for {
			t, attempt, err := d.next(maxAttempts)
			if t == nil || err != nil {
				return
			}

			// A fault drawn once the step has ended surfaces nowhere: the
			// execution was moot, and the worker leaves as it would on its
			// next dispatch.
			switch rt.cfg.Faults.decide(rt.cfg.Workers) {
			case outcomeCrash:
				if !fault(wid, &d.stats.crashed, "crash") {
					return
				}
				rt.noteCrash()
				aliveMu.Lock()
				alive--
				dead := alive == 0
				aliveMu.Unlock()
				if dead {
					d.fail(fmt.Errorf("%w: every worker of this step crashed", errNoWorkers))
				}
				return // the worker is gone; its execution is lost
			case outcomeTransient:
				if !fault(wid, &d.stats.transients, "transient") {
					return
				}
				continue // abandoned; eager scheduling will retry
			case outcomeSlow:
				if !fault(wid, nil, "slow") {
					return
				}
				time.Sleep(rt.cfg.Faults.SlowDelay)
			}

			ctx := &TaskCtx{
				Width:  t.width,
				Number: t.number,
				Worker: wid,
				store:  rt.store,
				writes: make(map[string]Value),
			}
			started := time.Now()
			if err := s.runBody(t, ctx); err != nil {
				d.fail(err)
				return
			}
			// The commit and its report are one: the last winner's TaskExec
			// fires before end closes the step, and a loser's after it
			// fires nowhere.
			d.report(nil, func() {
				won := d.commit(t, ctx.writes)
				if !won {
					d.mu.Lock()
					d.stats.wasted++
					d.mu.Unlock()
				}
				if hooks.TaskExec != nil {
					hooks.TaskExec(stepID, wid, t.id, attempt, started, time.Since(started), won)
				}
			})
		}
	}

	for w := 0; w < workers; w++ {
		go worker(w)
	}
	// The step ends as soon as every task has committed (or the step
	// failed) — not when every in-flight execution returns.  A stalled
	// duplicate keeps running in the background and exits on its next
	// dispatch attempt; its late stats, hooks and commit are discarded.
	// This is the point of eager scheduling: stragglers cannot delay the
	// step.  Closing it waits only for the reports under way.
	<-d.done
	d.close()

	d.mu.Lock()
	st := d.stats
	failed := d.failed
	remaining := d.remaining
	// Snapshot the winning write buffers while holding the lock so a
	// late-committing straggler cannot race the merge below.
	taskWrites := make([]map[string]Value, len(d.tasks))
	taskIDs := make([]int, len(d.tasks))
	for i, t := range d.tasks {
		taskWrites[i] = t.writes
		taskIDs[i] = t.id
	}
	d.mu.Unlock()

	rt.mu.Lock()
	rt.metrics.Steps++
	rt.metrics.Tasks += len(d.tasks)
	rt.metrics.Executions += st.execs
	rt.metrics.Duplicates += st.dups
	rt.metrics.WastedCommit += st.wasted
	rt.metrics.Crashes += st.crashed
	rt.metrics.Transients += st.transients
	rt.mu.Unlock()

	if failed != nil {
		return failed
	}
	if remaining > 0 {
		return fmt.Errorf("%w: %d tasks uncommitted", errNoWorkers, remaining)
	}

	// Merge with exclusive-write checking: two distinct tasks writing one
	// variable is a CW conflict (duplicated executions of the same task
	// are fine — only the winner's buffer is kept).
	writer := make(map[string]int)
	merged := make(map[string]Value)
	for i, writes := range taskWrites {
		for k, v := range writes {
			if prev, ok := writer[k]; ok && prev != taskIDs[i] {
				return fmt.Errorf("%w: tasks %d and %d both write %q", errWriteConflict, prev, taskIDs[i], k)
			}
			writer[k] = taskIDs[i]
			merged[k] = v
		}
	}
	rt.store.snapshotApply(merged)
	return nil
}

// runBody invokes the routine body, converting panics into errors so a
// buggy task cannot take down the runtime.
func (s *step) runBody(t *task, ctx *TaskCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("calypso: task %d panicked: %v", t.id, r)
		}
	}()
	return t.fn(ctx, t.width, t.number)
}
