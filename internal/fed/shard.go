package fed

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"milan/internal/core"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

// shard is one partition of the machine's processor pool: its own
// core.Scheduler behind its own lock, so admissions on different shards
// proceed concurrently.  All mutation goes through the arbitrator; tests may
// inspect a shard through the read accessors.
type shard struct {
	id int

	mu    sync.Mutex
	sched *core.Scheduler
	now   float64
	// version counts committed mutations (reservations, trims, resizes).
	// The router records it at probe time and may commit a planned
	// placement without re-planning when the version is unchanged — the
	// optimistic-concurrency fast path that keeps a 1-shard plane
	// bitwise-identical to the reference arbitrator.
	version uint64

	// routed is false on the only shard of a one-shard plane: nothing
	// chooses between shards there, so the load signal below is never read
	// and never computed (Load stays 0).
	routed bool
	// loadArea approximates the shard's future reserved area: it is
	// recomputed exactly from the profile on observe and restore, and
	// bumped incrementally by each commit's own area in between (a commit
	// never needs to rescan the profile for the routing signal — slight
	// staleness of the window edge is fine for a load hint).
	loadArea float64
	// loadBits caches the shard's normalized load signal (future reserved
	// area per processor) as float64 bits, so the router's
	// power-of-k-choices scan reads one atomic per shard without taking
	// any lock.
	loadBits atomic.Uint64

	// observer, if non-nil, is Config.Observer: the shard calls it under
	// sh.mu at each of its four committed mutations (committedLocked,
	// noteRejectedLocked, observe, resizeToward).
	observer func(qos.Decision)

	// spare is the box the next admission plans into.  A refusal leaves it
	// in place — it was never handed out — so only a grant takes a box from
	// boxes.
	spare *qos.GrantBox
	boxes qos.GrantBoxes
}

func newShard(id, procs int, opts *core.Options, routed bool, observer func(qos.Decision)) *shard {
	return &shard{
		id:       id,
		sched:    core.NewScheduler(procs, 0, opts),
		routed:   routed,
		observer: observer,
	}
}

// ID returns the shard's index within the plane.
func (sh *shard) ID() int { return sh.id }

// Procs returns the shard's current processor count.
func (sh *shard) Procs() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Procs()
}

// load returns the cached load signal: future reserved area per processor.
// It is refreshed after every committed mutation and read lock-free by the
// router.
func (sh *shard) load() float64 { return math.Float64frombits(sh.loadBits.Load()) }

// Stats returns the shard scheduler's counters.
func (sh *shard) Stats() core.Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Stats()
}

// IndexStats returns the shard's profile-index work counters.
func (sh *shard) IndexStats() core.IndexStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.IndexStats()
}

// busyUpTo returns the shard's reserved processor-time up to t.
func (sh *shard) busyUpTo(t float64) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.BusyUpTo(t)
}

// checkInvariants validates the shard profile's structural invariants
// (usage within capacity everywhere, ordered breakpoints, clean index).
func (sh *shard) checkInvariants() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Profile().CheckInvariants()
}

// refreshLoadLocked recomputes the cached load signal exactly from the
// profile — a walk of every future segment, which is why an
// unrouted shard skips it.  Callers hold sh.mu.
func (sh *shard) refreshLoadLocked() {
	if sh.routed {
		p := sh.sched.Profile()
		from := sh.now
		if o := p.Origin(); o > from {
			from = o
		}
		sh.loadArea = p.BusyOn(from, p.LastBreak())
		sh.publishLoadLocked()
	}
}

// committedLocked is the bookkeeping every committed reservation shares:
// the version bump, the placement's own area added to the cached load
// signal without rescanning the profile (the next observe or restore snaps
// the approximation back to exact), the rest of the grant that holds the
// placement, and the decision.  Callers hold sh.mu.
func (sh *shard) committedLocked(job *core.Job, quality float64, g *qos.Grant) *qos.Grant {
	sh.version++
	if sh.routed {
		sh.loadArea += g.Placement.Area()
		sh.publishLoadLocked()
	}
	g.JobID, g.Chain, g.Quality, g.Trace, g.Shard = job.ID, g.Placement.Chain, quality, job.Trace, sh.id
	if sh.observer != nil {
		sh.observer(qos.Decision{Kind: qos.KindAdmitted, Job: *job, Grant: g, Now: sh.now, Shard: sh.id})
	}
	return g
}

// whatIf replays the job under the delta on a fork of this shard's
// schedule.  The shard lock is held only for the fork; the counterfactual
// planning runs outside the critical section, so probes never stall
// concurrent admissions.
func (sh *shard) whatIf(job core.Job, d core.WhatIfDelta) (*core.Placement, bool) {
	sh.mu.Lock()
	f := sh.sched.Fork()
	sh.mu.Unlock()
	return core.WhatIfOn(f, job, d)
}

func (sh *shard) publishLoadLocked() {
	sh.loadBits.Store(math.Float64bits(sh.loadArea / float64(sh.sched.Procs())))
}

// probe plans the job on this shard without committing, returning the
// placement and the shard version the plan was computed against.  With
// wantKey it also returns the plan's cross-shard tie-break key; the router
// asks for it only when it has more than one probe to compare, because the
// key's utilization costs a scan of the profile over the plan's window.
func (sh *shard) probe(job core.Job, wantKey bool) (pl *core.Placement, key planKey, ver uint64, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if wantKey {
		var pk core.PlanKey
		pl, pk, ok = sh.sched.PlanKeyed(job)
		key = planKey{finish: pk.Finish, util: pk.Util, prefix: pk.Prefix}
	} else {
		pl, ok = sh.sched.Plan(job)
	}
	return pl, key, sh.version, ok
}

// commitPlanned commits a placement planned at version ver.  When the shard
// is unchanged since the probe, the plan commits directly (a single
// scheduler's Plan+Commit sequence, split across two critical sections).
// When another admission or a trim won the race, the job is re-admitted
// from scratch on this shard.  A core.ErrRejected from the re-admission
// means the capacity the probe saw is gone, and this shard has counted
// (and announced) a rejection.
func (sh *shard) commitPlanned(job core.Job, pl *core.Placement, ver uint64) (*qos.Grant, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.version != ver {
		return sh.admitLocked(&job, nil)
	}
	// The probe's placement outlived the shard lock, so it is the caller's
	// own copy, and the grant is a box around it.
	box := sh.boxes.Next()
	box.Grant.Placement = *pl
	return sh.commitLocked(&job, &box.Grant)
}

// admit is a one-shard plane's whole admission, in one critical section:
// lock (route), plan, then commit or count the rejection (reserve) —
// qos.Arbitrator's sequence and its phase marks, and the scheduler calls
// probe + commitPlanned + noteRejected make at one shard, in their order.
func (sh *shard) admit(job core.Job, rec *phase.Rec) (*qos.Grant, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec.Mark(phase.Route)
	return sh.admitLocked(&job, rec)
}

// admitLocked plans the job and commits the plan or counts the rejection.
// The plan is made where the grant keeps it — a promise is one box
// (qos.GrantBox), cut from the shard's slab.  Callers hold sh.mu.
func (sh *shard) admitLocked(job *core.Job, rec *phase.Rec) (*qos.Grant, error) {
	if sh.spare == nil {
		sh.spare = sh.boxes.Next()
	}
	box := sh.spare
	ok := sh.sched.PlanInto(*job, &box.Grant.Placement, box.Tasks[:0])
	rec.Mark(phase.Plan)
	if !ok {
		sh.noteRejectedLocked(job)
		return nil, core.ErrRejected
	}
	sh.spare = nil
	return sh.commitLocked(job, &box.Grant)
}

// commitLocked commits g.Placement, a plan computed against the shard as it
// stands, and fills in the rest of g.  Callers hold sh.mu.
func (sh *shard) commitLocked(job *core.Job, g *qos.Grant) (*qos.Grant, error) {
	if err := sh.sched.Commit(*job, &g.Placement); err != nil {
		return nil, err
	}
	return sh.committedLocked(job, job.Chains[g.Placement.Chain].Quality, g), nil
}

// noteRejected records a router-level rejection on this shard, mirroring
// a single scheduler's Admit rejection bookkeeping (the probes already
// counted the per-chain planning work).
func (sh *shard) noteRejected(job core.Job) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.noteRejectedLocked(&job)
}

func (sh *shard) noteRejectedLocked(job *core.Job) {
	sh.sched.NoteRejected()
	if sh.observer != nil {
		sh.observer(qos.Decision{Kind: qos.KindRejected, Job: *job, Now: sh.now, Shard: sh.id})
	}
}

// admitDAG runs DAG admission control on this shard.
func (sh *shard) admitDAG(job core.DAGJob) (*qos.Grant, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pl, err := sh.sched.AdmitDAG(job)
	if err != nil {
		return nil, err
	}
	return sh.committedLocked(&core.Job{ID: job.ID}, job.Alts[pl.Chain].Quality, &qos.Grant{Placement: *pl}), nil
}

// observe advances the shard's clock, folding elapsed history.
func (sh *shard) observe(now float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if now > sh.now {
		sh.now = now
		sh.sched.Observe(now)
		sh.version++
		sh.refreshLoadLocked()
		if sh.observer != nil {
			sh.observer(qos.Decision{Kind: qos.KindClock, Now: now, Shard: sh.id})
		}
	}
}

// resizeToward steps the shard's processor count toward total, one
// processor per step under one hold of the lock, announcing each step as a
// qos.KindResize.  Growth always succeeds; a shrink stops at the first
// processor a committed reservation still needs (reservations are never
// preempted), returning the count reached and the shortfall.
func (sh *shard) resizeToward(total int) (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.sched.Procs()
	for cur != total {
		next := cur + 1
		if total < cur {
			next = cur - 1
		}
		if err := sh.sched.SetCapacity(next); err != nil {
			return cur, fmt.Errorf("fed: cannot shrink below %d procs without preempting reservations (target %d)", cur, total)
		}
		cur = next
		sh.version++
		if sh.observer != nil {
			sh.observer(qos.Decision{Kind: qos.KindResize, Now: sh.now, Shard: sh.id, Procs: cur})
		}
	}
	return cur, nil
}
