package main

import (
	"fmt"
	"math"
)

// oracle checks every decision a round's stack returns.  A grant must meet
// its deadlines (admitted => deadline met), all grants together must fit the
// machine, an ordered workload must decide exactly as an in-process
// arbitrator does, and whatever was acknowledged must be recovered when the
// journal is reopened (acked => durable).  A rejection is a correct answer;
// anything else counts as a failed operation.
type oracle struct {
	s *spec
	// ordered says that one client submitted the jobs in stream order, so
	// the journal holds exactly one record per acknowledged operation.
	ordered  bool
	capacity capacityOracle
	digest   uint64
	now      float64 // the clock the plane last acknowledged
	// live holds the acknowledged grants the plane still carries, those that
	// finish after the observed clock, plus finished ones not yet swept:
	// sweeping on every observation would walk a deep backlog's thousands of
	// live grants once per eight jobs.
	live      map[int]*Grant
	sweepSize int // len(live) that triggers the next sweep

	// Acknowledged operations that append a journal record, and of those the
	// clock observations.
	journaled, observations uint64

	attempted, failed int
	failures          []string

	// Counted between mark() and freeze(): the offered jobs, grants and
	// granted area behind admit_ratio and utilization.
	frozen                   bool
	offered, granted, shed   int
	area                     float64
	firstRelease, lastFinish float64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func newOracle(s *spec, ordered bool) *oracle {
	return &oracle{s: s, ordered: ordered, capacity: newCapacityOracle(s.Procs), digest: fnvOffset, live: map[int]*Grant{}}
}

func (o *oracle) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// freeze ends the counts behind admit_ratio and utilization; the checks go on.
func (o *oracle) freeze() { o.frozen = true }

// mark starts the counts behind admit_ratio and utilization.
func (o *oracle) mark() {
	o.offered, o.granted, o.shed = 0, 0, 0
	o.area, o.firstRelease, o.lastFinish = 0, 0, 0
}

func fold(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for b := 0; b < 8; b++ {
			h = (h ^ (w & 0xff)) * fnvPrime
			w >>= 8
		}
	}
	return h
}

// foldDecision folds one decision into an FNV-1a digest: the job, the
// verdict, and for a grant the chain and every task's reservation.
func foldDecision(h uint64, job Job, g *Grant) uint64 {
	if g == nil {
		return fold(h, uint64(job.ID), 'R')
	}
	h = fold(h, uint64(job.ID), 'A', uint64(g.Chain))
	for _, tp := range g.Placement.Tasks {
		h = fold(h, math.Float64bits(tp.Start), math.Float64bits(tp.Finish), uint64(tp.Procs))
	}
	return h
}

// verify checks one finished lap.
func (o *oracle) verify(l *lap) {
	for i, job := range l.jobs {
		o.attempted++
		g, err := l.grants[i], l.errs[i]
		switch {
		case err != nil && !isRejected(err):
			o.fail("job %d: %v", job.ID, err)
			continue
		case g == nil && err == nil:
			o.fail("job %d: neither grant nor error", job.ID)
			continue
		}
		if now := l.observe[i]; now > 0 {
			o.observed(now)
		}
		o.journaled++
		o.digest = foldDecision(o.digest, job, g)
		sound := g == nil || o.sound(job, g)
		if o.frozen {
			continue
		}
		if o.offered == 0 {
			o.firstRelease = job.Release
		}
		o.offered++
		if isShed(err) {
			o.shed++
		}
		if g != nil {
			o.granted++
		}
		if g != nil && sound {
			o.area += g.Placement.Area()
			o.lastFinish = max(o.lastFinish, g.Finish())
		}
	}
}

// sound holds one grant to the job's deadlines and the machine's capacity,
// and remembers it as acknowledged.
func (o *oracle) sound(job Job, g *Grant) bool {
	if msg := checkGrant(job, g); msg != "" {
		o.fail("job %d: %s", job.ID, msg)
		return false
	}
	if err := o.capacity.reserve(g); err != nil {
		o.fail("job %d: over capacity: %v", job.ID, err)
		return false
	}
	if g.Finish() > o.now {
		o.live[job.ID] = g
	}
	return true
}

func (o *oracle) observed(now float64) {
	if now <= o.now {
		return
	}
	o.now = now
	o.journaled++
	o.observations++
	o.capacity.observe(now)
	if len(o.live) < o.sweepSize {
		return
	}
	for id, g := range o.live {
		if g.Finish() <= now {
			delete(o.live, id)
		}
	}
	o.sweepSize = 2*len(o.live) + 1024
}

// checkGrant returns why the grant breaks the job's contract, or "".
func checkGrant(job Job, g *Grant) string {
	if g.JobID != job.ID || g.Chain < 0 || g.Chain >= len(job.Chains) {
		return fmt.Sprintf("grant for job %d chain %d", g.JobID, g.Chain)
	}
	tasks := job.Chains[g.Chain].Tasks
	if len(g.Placement.Tasks) != len(tasks) {
		return fmt.Sprintf("%d reservations for %d tasks", len(g.Placement.Tasks), len(tasks))
	}
	ready := job.Release
	for k, tp := range g.Placement.Tasks {
		t := tasks[k]
		switch {
		case tp.Task != k || tp.Procs != t.Procs:
			return fmt.Sprintf("task %d reserved as task %d on %d procs, want %d", k, tp.Task, tp.Procs, t.Procs)
		case math.Abs(tp.Finish-tp.Start-t.Duration) > eps:
			return fmt.Sprintf("task %d reserved for %v, needs %v", k, tp.Finish-tp.Start, t.Duration)
		case tp.Start < ready-eps:
			return fmt.Sprintf("task %d starts at %v before it is ready at %v", k, tp.Start, ready)
		case tp.Finish > t.Deadline+eps:
			return fmt.Sprintf("task %d finishes at %v after its deadline %v", k, tp.Finish, t.Deadline)
		}
		ready = tp.Finish
	}
	return ""
}

// admitRatio is grants over offered jobs in the measured interval.
func (o *oracle) admitRatio() float64 { return float64(o.granted) / float64(o.offered) }

// utilization is the paper's Figure-5 quantity over the measured interval:
// granted area over the machine's capacity from the first release to the
// last granted finish.
func (o *oracle) utilization() float64 {
	return o.area / (float64(o.s.Procs) * (o.lastFinish - o.firstRelease))
}

// durable checks a reopened journal against what the round's clients were
// told.
func (o *oracle) durable(r recovered) {
	decisions := o.journaled - o.observations
	switch {
	case o.ordered && (r.lsn != o.journaled || r.now != o.now):
		o.fail("recovered lsn %d clock %v, acknowledged %d operations up to clock %v", r.lsn, r.now, o.journaled, o.now)
	case r.lsn < decisions || r.lsn > o.journaled:
		// Racing clients may deliver two observations out of order; the
		// plane then journals only the later one.
		o.fail("recovered lsn %d, acknowledged %d decisions and %d observations", r.lsn, decisions, o.observations)
	}
	for id, g := range o.live {
		if g.Finish() <= r.now {
			continue
		}
		tasks, ok := r.grants[id]
		if !ok || len(tasks) != len(g.Placement.Tasks) {
			o.fail("grant %d acknowledged but not recovered", id)
			continue
		}
		for k, tp := range g.Placement.Tasks {
			if tasks[k] != tp {
				o.fail("grant %d task %d recovered as %+v, acknowledged %+v", id, k, tasks[k], tp)
			}
		}
	}
}

// reference replays a stream through an in-process qos.Arbitrator and
// remembers the digest at every lap boundary it has been asked for, so each
// round of an ordered workload can be held to it.
type reference struct {
	feed   feeder
	arb    *rung
	digest uint64
	at     map[int]uint64
	lap    lap
}

func newReference(s *spec, seed int64) (*reference, error) {
	st, err := newStream(s, seed)
	if err != nil {
		return nil, err
	}
	arb, err := newRung("qos", s.Procs, "")
	if err != nil {
		return nil, err
	}
	return &reference{feed: feeder{st: st}, arb: arb, digest: fnvOffset, at: map[int]uint64{}}, nil
}

// digestAt returns the reference digest after the first jobs jobs of the
// stream.  Boundaries must be asked for in stream order the first time.
func (r *reference) digestAt(jobs int) (uint64, error) {
	if d, ok := r.at[jobs]; ok {
		return d, nil
	}
	if jobs < r.feed.jobs {
		return 0, fmt.Errorf("reference already past job %d", jobs)
	}
	r.feed.fill(&r.lap, jobs-r.feed.jobs)
	for i, job := range r.lap.jobs {
		if now := r.lap.observe[i]; now > 0 {
			r.arb.Observe(now)
		}
		g, err := r.arb.Negotiate(job)
		if err != nil && !isRejected(err) {
			return 0, fmt.Errorf("reference arbitrator: job %d: %w", job.ID, err)
		}
		r.digest = foldDecision(r.digest, job, g)
	}
	r.at[jobs] = r.digest
	return r.digest, nil
}
