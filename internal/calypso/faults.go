package calypso

import (
	"math/rand"
	"sync"
	"time"
)

// FaultPlan injects failures into a runtime, exercising the two-phase
// idempotent execution and eager scheduling machinery.  All probabilities
// are evaluated independently per (worker, execution).
type FaultPlan struct {
	// CrashProb is the probability that a worker crashes permanently while
	// executing a task (the execution is lost; the worker takes no further
	// work).
	CrashProb float64
	// TransientProb is the probability that an execution is abandoned
	// without committing (a transient fault: the worker survives).
	TransientProb float64
	// SlowProb is the probability that an execution is delayed by
	// SlowDelay before committing (a straggler).
	SlowProb  float64
	SlowDelay time.Duration
	// MaxCrashes caps the number of workers allowed to crash (so that a
	// plan cannot kill every worker).  Zero means Workers-1.
	MaxCrashes int
	// Seed makes injection reproducible.
	Seed int64

	mu      sync.Mutex
	rng     *rand.Rand
	crashes int
}

func (f *FaultPlan) init() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
}

// outcome is the injected fate of one execution.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeTransient
	outcomeCrash
	outcomeSlow
)

// decide draws the fate of one execution.  workersAlive lets the plan
// respect MaxCrashes relative to the runtime's worker count.
func (f *FaultPlan) decide(workers int) outcome {
	if f == nil {
		return outcomeOK
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	maxCrashes := f.MaxCrashes
	if maxCrashes <= 0 {
		maxCrashes = workers - 1
	}
	switch {
	case f.CrashProb > 0 && f.crashes < maxCrashes && f.rng.Float64() < f.CrashProb:
		f.crashes++
		return outcomeCrash
	case f.TransientProb > 0 && f.rng.Float64() < f.TransientProb:
		return outcomeTransient
	case f.SlowProb > 0 && f.rng.Float64() < f.SlowProb:
		return outcomeSlow
	default:
		return outcomeOK
	}
}
