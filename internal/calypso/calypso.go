// Package calypso reimplements the execution model of the Calypso parallel
// programming system (Section 2 of the paper) on goroutines: computations
// are sequential programs with embedded parallel steps; each step consists
// of routines expanded into tasks that run with CREW (concurrent-read,
// exclusive-write) semantics against a shared store, with updates visible
// only at the end of the step.
//
// Two execution techniques give the fault-free virtual machine:
//
//   - Two-phase idempotent execution: a task's writes are buffered
//     privately and committed atomically exactly once, so a task may be
//     executed multiple times (including partial executions) with
//     exactly-once semantics.
//   - Eager scheduling: idle workers re-execute not-yet-committed tasks, so
//     the step completes as long as at least one worker survives, masking
//     worker crashes and stragglers.
//
// Workers model processors; fault injection (crashes, transient task
// failures, slowdowns) exercises the masking machinery.
package calypso

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Value is what the shared store holds.  Values must be treated as
// immutable once written: tasks communicate only through step-boundary
// updates.
type Value interface{}

// Store is the Calypso shared memory: a name -> value map with updates
// applied at parallel-step boundaries.  Between steps it may be read and
// written freely by the sequential part of the program.
type Store struct {
	mu   sync.RWMutex
	data map[string]Value
}

// newStore returns an empty store.
func newStore() *Store { return &Store{data: make(map[string]Value)} }

// get reads a shared variable.
func (s *Store) get(key string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Len returns the number of shared variables.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// snapshotApply merges a step's committed writes.
func (s *Store) snapshotApply(writes map[string]Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range writes {
		s.data[k] = v
	}
}

// GetAs reads a shared variable with a type assertion.
func GetAs[T any](s *Store, key string) (T, bool) {
	var zero T
	v, ok := s.get(key)
	if !ok {
		return zero, false
	}
	t, ok := v.(T)
	if !ok {
		return zero, false
	}
	return t, true
}

// Metrics counts runtime events across all steps.
type Metrics struct {
	Steps        int // parallel steps executed
	Tasks        int // logical tasks (routine instances)
	Executions   int // task executions started (>= Tasks with eager scheduling)
	Duplicates   int // executions beyond the first per task
	WastedCommit int // completed executions that lost the commit race
	Crashes      int // workers lost permanently
	Transients   int // executions abandoned by injected transient faults
}

// RoutineFunc is the body of one routine: invoked with the task context,
// the routine's width (number of sibling tasks) and this task's sequence
// number in [0, width).  The body must be idempotent with respect to
// everything except its TaskCtx writes — it may run more than once.
type RoutineFunc func(ctx *TaskCtx, width, number int) error

// TraceHooks observes runtime execution.  Every field is optional; nil
// fields cost one pointer comparison at the call site (the observability
// layer's zero-cost contract).  Hooks run on worker goroutines and must be
// safe for concurrent use.  A step's TaskExec and WorkerFault calls are the
// events its Metrics count: all of them return before the step does, and a
// straggler execution that outlives its step fires none, as its counts are
// dropped.
type TraceHooks struct {
	// StepStart fires when a parallel step begins executing, with the
	// step's sequence number (0-based per runtime) and its task count.
	StepStart func(step, tasks int)
	// StepDone fires when a parallel step completes or fails.
	StepDone func(step int, d time.Duration, err error)
	// TaskExec fires after each task execution attempt: the worker that
	// ran it, the attempt number (1 = first execution) and whether this
	// execution won the commit race.
	TaskExec func(step, worker, task, attempt int, start time.Time, d time.Duration, committed bool)
	// WorkerFault fires on injected faults: kind is "crash", "transient"
	// or "slow".
	WorkerFault func(step, worker int, kind string)
}

// Config configures a runtime.
type Config struct {
	// Workers is the number of worker goroutines ("processors").  Must be
	// at least 1.
	Workers int
	// Faults optionally injects failures; nil disables injection.
	Faults *FaultPlan
	// Hooks optionally observes step and task execution (tracing); the
	// zero value disables observation.
	Hooks TraceHooks
}

// Runtime executes Calypso programs.
type Runtime struct {
	cfg     Config
	store   *Store
	metrics Metrics
	alive   int        // workers not yet crashed (crashes are permanent)
	steps   int        // step sequence numbers handed out
	mu      sync.Mutex // guards metrics, alive and steps
}

// nextStepID hands out the next step sequence number.
func (rt *Runtime) nextStepID() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.steps
	rt.steps++
	return id
}

// New returns a runtime with the given configuration.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("calypso: %d workers (need >= 1)", cfg.Workers)
	}
	rt := &Runtime{cfg: cfg, store: newStore(), alive: cfg.Workers}
	if cfg.Faults != nil {
		cfg.Faults.init()
	}
	return rt, nil
}

// Store returns the runtime's shared memory.
func (rt *Runtime) Store() *Store { return rt.store }

// Workers returns the configured worker count.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Alive returns the number of workers that have not crashed.
func (rt *Runtime) aliveWorkers() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.alive
}

// noteCrash permanently removes one worker.
func (rt *Runtime) noteCrash() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.alive > 0 {
		rt.alive--
	}
}

// Metrics returns a copy of the accumulated counters.
func (rt *Runtime) Metrics() Metrics {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.metrics
}

// errNoWorkers is wrapped in a step error when every worker has crashed
// before the step could finish; no resource remains to mask the faults.
var errNoWorkers = errors.New("calypso: all workers crashed")

// errWriteConflict is wrapped in a step error when two different tasks of
// one step write the same shared variable, violating exclusive-write
// semantics.
var errWriteConflict = errors.New("calypso: concurrent write conflict")

// errTooManyAttempts is wrapped in a step error when a task exceeds the
// execution attempt bound without committing.
var errTooManyAttempts = errors.New("calypso: task exceeded attempt bound")
