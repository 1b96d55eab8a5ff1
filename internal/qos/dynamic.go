package qos

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"milan/internal/core"
)

// DynamicArbitrator extends the arbitrator with the renegotiation behavior
// Section 3.1 describes but the paper's evaluation holds fixed: "the QoS
// arbitrator also monitors system resources, and triggers renegotiation on
// detecting a significant change in resource levels (e.g., on a fault, or
// when new resources become available)".
//
// It tracks every in-flight grant.  When capacity changes it rebuilds the
// schedule at the current time: tasks already running keep their slots
// verbatim (non-preemptive) or their jobs abort; future tasks of admitted
// jobs are re-placed, possibly moving; jobs whose remaining tasks no
// longer meet their deadlines abort.  Jobs rejected at admission may opt
// to wait; capacity growth retries them while their deadlines still allow.
type DynamicArbitrator struct {
	mu     sync.Mutex
	procs  int
	now    float64
	opts   *core.Options
	sched  *core.Scheduler
	active map[int]*flight
	order  []int // admission order of active jobs (renegotiation priority)
	wait   []waiting
	stats  DynamicStats

	// OnRenegotiated, if set, is called (outside internal locks held by
	// callers, inside the arbitrator's own lock) for every job whose
	// placement moved during a capacity change.
	OnRenegotiated func(jobID int, g *Grant)
	// OnAborted is called for every job evicted by a capacity change.
	OnAborted func(jobID int)
	// Observer, if set, is called synchronously with every admission
	// decision (the dynamic counterpart of ArbitratorConfig.Observer);
	// retried waiting jobs produce a fresh decision on success.
	Observer func(Decision)
}

// flight is one admitted, unfinished job.
type flight struct {
	job   core.Job
	grant *Grant
}

// waiting is a rejected job that asked to be retried on capacity growth.
type waiting struct {
	job   core.Job
	agent func(*Grant) // completion callback, may be nil
}

// DynamicStats counts renegotiation events.
type DynamicStats struct {
	Admitted       int
	Rejected       int // rejection events, including failed retries of waiting jobs
	CapacityEvents int
	Renegotiated   int // placements moved by a capacity change
	Aborted        int // jobs evicted by a capacity change
	Rescued        int // waiting jobs admitted after capacity growth
}

// NewDynamicArbitrator returns a renegotiating arbitrator.
func NewDynamicArbitrator(procs int, opts *core.Options) (*DynamicArbitrator, error) {
	if procs < 1 {
		return nil, fmt.Errorf("qos: dynamic arbitrator needs >= 1 processor, got %d", procs)
	}
	return &DynamicArbitrator{
		procs:  procs,
		opts:   opts,
		sched:  core.NewScheduler(procs, 0, opts),
		active: make(map[int]*flight),
	}, nil
}

// Procs returns the current machine size.
func (d *DynamicArbitrator) Procs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.procs
}

// Stats returns a copy of the renegotiation counters.
func (d *DynamicArbitrator) Stats() DynamicStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Negotiate admits the job or returns ErrRejected (implements Negotiator).
func (d *DynamicArbitrator) Negotiate(job core.Job) (*Grant, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.negotiateLocked(job)
}

func (d *DynamicArbitrator) negotiateLocked(job core.Job) (*Grant, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("qos: dynamic negotiate: %w", err)
	}
	if _, dup := d.active[job.ID]; dup {
		return nil, fmt.Errorf("qos: job %d already active", job.ID)
	}
	pl, err := d.sched.Admit(job)
	if err != nil {
		if errors.Is(err, core.ErrRejected) {
			d.stats.Rejected++
			if d.Observer != nil {
				d.Observer(Decision{Kind: KindRejected, Job: job, Now: d.now})
			}
			return nil, ErrRejected
		}
		return nil, err
	}
	g := &Grant{JobID: job.ID, Chain: pl.Chain, Quality: job.Chains[pl.Chain].Quality, Placement: *pl, Trace: job.Trace}
	d.active[job.ID] = &flight{job: job, grant: g}
	d.order = append(d.order, job.ID)
	d.stats.Admitted++
	if d.Observer != nil {
		d.Observer(Decision{Kind: KindAdmitted, Job: job, Grant: g, Now: d.now})
	}
	return g, nil
}

// NegotiateOrWait admits the job, or enqueues it for retry on the next
// capacity growth.  The callback (if non-nil) runs when a later retry
// succeeds.
func (d *DynamicArbitrator) NegotiateOrWait(job core.Job, onGrant func(*Grant)) (*Grant, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g, err := d.negotiateLocked(job)
	if errors.Is(err, ErrRejected) {
		d.wait = append(d.wait, waiting{job: job, agent: onGrant})
	}
	return g, err
}

// Observe advances time: grants whose last task finished are retired and
// the schedule history is compacted.
func (d *DynamicArbitrator) Observe(now float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if now <= d.now {
		return
	}
	d.now = now
	d.sched.Observe(now)
	for id, f := range d.active {
		if f.grant.Finish() <= now {
			delete(d.active, id)
		}
	}
	d.compactOrder()
	// Expired waiters (their first deadline can no longer be met even by
	// an instant start) are dropped.
	kept := d.wait[:0]
	for _, w := range d.wait {
		if earliestDeadline(w.job) > now {
			kept = append(kept, w)
		}
	}
	d.wait = kept
}

// Active returns the IDs of in-flight jobs, in admission order.
func (d *DynamicArbitrator) Active() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.active))
	for _, id := range d.order {
		if _, ok := d.active[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Waiting returns the number of queued rejected jobs.
func (d *DynamicArbitrator) Waiting() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.wait)
}

// Utilization reports reserved capacity over [origin, horizon] against the
// *current* machine size.
func (d *DynamicArbitrator) Utilization(origin, horizon float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sched.Utilization(origin, horizon)
}

// SetCapacity renegotiates the whole schedule for a new machine size at
// the current time.  In-flight tasks keep their reservations verbatim
// where possible; future tasks are re-placed in admission order; jobs that
// no longer fit abort.  On growth, waiting jobs are retried.  It returns
// the IDs of aborted jobs.
func (d *DynamicArbitrator) SetCapacity(procs int) ([]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if procs < 1 {
		return nil, fmt.Errorf("qos: capacity %d must be >= 1", procs)
	}
	d.stats.CapacityEvents++
	grew := procs > d.procs
	d.procs = procs
	fresh := core.NewScheduler(procs, d.now, d.opts)

	var aborted []int
	for _, id := range d.orderedActive() {
		f := d.active[id]
		ok, moved := d.replay(fresh, f)
		if !ok {
			aborted = append(aborted, id)
			delete(d.active, id)
			d.stats.Aborted++
			if d.OnAborted != nil {
				d.OnAborted(id)
			}
			continue
		}
		if moved {
			d.stats.Renegotiated++
			if d.OnRenegotiated != nil {
				d.OnRenegotiated(id, f.grant)
			}
		}
	}
	d.sched = fresh
	d.compactOrder()

	if grew {
		d.retryWaitingLocked()
	}
	sort.Ints(aborted)
	return aborted, nil
}

// replay re-admits one in-flight job onto the fresh scheduler.  It returns
// (survived, placementMoved).
func (d *DynamicArbitrator) replay(fresh *core.Scheduler, f *flight) (bool, bool) {
	chain := f.job.Chains[f.grant.Chain]
	old := f.grant.Placement
	moved := false
	newTasks := make([]core.TaskPlacement, 0, len(old.Tasks))
	prevFinish := d.now

	for i, tp := range old.Tasks {
		switch {
		case tp.Finish <= d.now:
			// Already completed: keep for the record, no reservation.
			newTasks = append(newTasks, tp)
			prevFinish = tp.Finish
		case tp.Start < d.now:
			// Running: non-preemptive, so it keeps its processors for its
			// remaining span or the job dies.
			if err := fresh.ReserveSlot(tp.Procs, d.now, tp.Finish); err != nil {
				return false, false
			}
			newTasks = append(newTasks, tp)
			prevFinish = tp.Finish
		default:
			// Future: re-place the remaining suffix of the chain.
			suffix := core.Chain{Name: chain.Name, Quality: chain.Quality, Tasks: chain.Tasks[i:]}
			placed, ok := fresh.PlaceChain(suffix, maxFloat(prevFinish, d.now))
			if !ok {
				return false, false
			}
			for k, p := range placed {
				p.Task = i + k
				if !almostEq(p.Start, old.Tasks[i+k].Start) {
					moved = true
				}
				newTasks = append(newTasks, p)
			}
			pl := &core.Placement{JobID: f.job.ID, Chain: f.grant.Chain, Tasks: placed}
			if err := fresh.ReservePlacement(pl); err != nil {
				return false, false
			}
			f.grant.Placement = core.Placement{JobID: f.job.ID, Chain: f.grant.Chain, Tasks: newTasks}
			return true, moved
		}
	}
	// No future tasks: everything was running or done.
	f.grant.Placement = core.Placement{JobID: f.job.ID, Chain: f.grant.Chain, Tasks: newTasks}
	return true, moved
}

// retryWaitingLocked retries queued rejections after capacity growth.
func (d *DynamicArbitrator) retryWaitingLocked() {
	remaining := d.wait[:0]
	for _, w := range d.wait {
		g, err := d.negotiateLocked(w.job)
		if err != nil {
			remaining = append(remaining, w)
			continue
		}
		// negotiateLocked counted this as a fresh admission and rejection
		// bookkeeping already happened at the original attempt.
		d.stats.Rescued++
		if w.agent != nil {
			w.agent(g)
		}
	}
	d.wait = remaining
}

// orderedActive returns active job IDs in admission order.
func (d *DynamicArbitrator) orderedActive() []int {
	out := make([]int, 0, len(d.active))
	for _, id := range d.order {
		if _, ok := d.active[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

func (d *DynamicArbitrator) compactOrder() {
	kept := d.order[:0]
	for _, id := range d.order {
		if _, ok := d.active[id]; ok {
			kept = append(kept, id)
		}
	}
	d.order = kept
}

func earliestDeadline(job core.Job) float64 {
	best := 0.0
	for i, c := range job.Chains {
		d := c.Tasks[0].Deadline
		if i == 0 || d > best {
			best = d // the most permissive chain keeps the job alive
		}
	}
	return best
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func almostEq(a, b float64) bool {
	const eps = 1e-9
	diff := a - b
	return diff < eps && diff > -eps
}
