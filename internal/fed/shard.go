package fed

import (
	"math"
	"sync"
	"sync/atomic"

	"milan/internal/core"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

// Shard is one partition of the machine's processor pool: its own
// core.Scheduler behind its own lock, so admissions on different shards
// proceed concurrently.  All mutation goes through the federated router and
// the rebalancer; tests may inspect a shard through the read accessors.
type Shard struct {
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
	// horizon is the sliding load-signal window (0 = all future work).
	horizon float64
	// loadArea approximates the shard's future reserved area: it is
	// recomputed exactly from the profile on observe and resize, and
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
	// noteRejectedLocked, observe, resize).
	observer func(qos.Decision)

	// spare is the box the next admission plans into.  A refusal leaves it
	// unfilled and in place — it was never handed out — so only a grant
	// costs an allocation.
	spare *qos.GrantBox
}

func newShard(id, procs int, origin float64, opts *core.Options, routed bool, horizon float64, observer func(qos.Decision)) *Shard {
	return &Shard{
		id:       id,
		sched:    core.NewScheduler(procs, origin, opts),
		now:      origin,
		routed:   routed,
		horizon:  horizon,
		observer: observer,
	}
}

// ID returns the shard's index within the plane.
func (sh *Shard) ID() int { return sh.id }

// Procs returns the shard's current processor count.
func (sh *Shard) Procs() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Procs()
}

// Load returns the cached load signal: reserved area over the sliding
// horizon, per processor.  It is refreshed after every committed mutation
// and read lock-free by the router.
func (sh *Shard) Load() float64 { return math.Float64frombits(sh.loadBits.Load()) }

// Headroom returns the number of processors the shard could give away
// without touching any committed reservation (capacity minus the peak
// committed usage over its represented future).
func (sh *Shard) Headroom() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Procs() - sh.sched.Profile().PeakUsed()
}

// Stats returns the shard scheduler's counters.
func (sh *Shard) Stats() core.Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Stats()
}

// IndexStats returns the shard's profile-index work counters.
func (sh *Shard) IndexStats() core.IndexStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.IndexStats()
}

// BusyUpTo returns the shard's reserved processor-time up to t.
func (sh *Shard) BusyUpTo(t float64) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.BusyUpTo(t)
}

// Utilization returns the shard's reserved-capacity fraction over
// [origin, horizon] against its own processor count.
func (sh *Shard) Utilization(origin, horizon float64) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Utilization(origin, horizon)
}

// CheckInvariants validates the shard profile's structural invariants
// (usage within capacity everywhere, ordered breakpoints, clean index).
func (sh *Shard) CheckInvariants() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.Profile().CheckInvariants()
}

// refreshLoadLocked recomputes the cached load signal exactly from the
// profile — a walk of every segment the window covers, which is why an
// unrouted shard skips it.  Callers hold sh.mu.
func (sh *Shard) refreshLoadLocked() {
	if sh.routed {
		p := sh.sched.Profile()
		from := sh.now
		if o := p.Origin(); o > from {
			from = o
		}
		if sh.horizon > 0 {
			sh.loadArea = p.BusyOn(from, from+sh.horizon)
		} else {
			sh.loadArea = p.BusyOn(from, p.LastBreak())
		}
		sh.publishLoadLocked()
	}
}

// committedLocked is the bookkeeping every committed reservation shares:
// the version bump, the placement's own area added to the cached load
// signal without rescanning the profile (the next observe or resize snaps
// the approximation back to exact), the rest of the grant that holds the
// placement, and the decision.  Callers hold sh.mu.
func (sh *Shard) committedLocked(job *core.Job, quality float64, g *qos.Grant) *qos.Grant {
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
func (sh *Shard) whatIf(job core.Job, d core.WhatIfDelta) (*core.Placement, bool) {
	sh.mu.Lock()
	f := sh.sched.Fork()
	sh.mu.Unlock()
	return core.WhatIfOn(f, job, d)
}

// diagnose explains why the job fails on this shard, stamped with the
// shard id when the shard is routed.  The lock is held for the analysis so
// the diagnosis is consistent with one decision point.
func (sh *Shard) diagnose(job core.Job) *core.PlanDiagnosis {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.sched.Diagnose(job)
	if sh.routed {
		d.Shard = sh.id
	}
	return d
}

func (sh *Shard) publishLoadLocked() {
	sh.loadBits.Store(math.Float64bits(sh.loadArea / float64(sh.sched.Procs())))
}

// probe plans the job on this shard without committing, returning the
// placement and the shard version the plan was computed against.  With
// wantKey it also returns the plan's cross-shard tie-break key; the router
// asks for it only when it has more than one probe to compare, because the
// key's utilization costs a scan of the profile over the plan's window.
func (sh *Shard) probe(job core.Job, wantKey bool) (pl *core.Placement, key planKey, ver uint64, ok bool) {
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
// from scratch on this shard; raced reports that fallback.  A
// core.ErrRejected from the re-admission means the capacity the probe saw
// is gone, and this shard has counted (and announced) a rejection.
func (sh *Shard) commitPlanned(job core.Job, pl *core.Placement, ver uint64) (g *qos.Grant, raced bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	raced = sh.version != ver
	if raced {
		g, err = sh.admitLocked(&job, nil)
	} else {
		// The probe's placement outlived the shard lock, so it is the
		// caller's own copy, and the grant is a second object around it.
		g, err = sh.commitLocked(&job, &qos.Grant{Placement: *pl})
	}
	return g, raced, err
}

// admit is a one-shard plane's whole admission, in one critical section:
// lock (route), plan, then commit or count the rejection (reserve) —
// qos.Arbitrator's sequence and its phase marks, and the scheduler calls
// probe + commitPlanned + noteRejected make at one shard, in their order.
func (sh *Shard) admit(job core.Job, rec *phase.Rec) (*qos.Grant, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec.Mark(phase.Route)
	return sh.admitLocked(&job, rec)
}

// admitLocked plans the job and commits the plan or counts the rejection.
// The plan is made where the grant keeps it — a promise is one object
// (qos.GrantBox).  Callers hold sh.mu.
func (sh *Shard) admitLocked(job *core.Job, rec *phase.Rec) (*qos.Grant, error) {
	if sh.spare == nil {
		sh.spare = new(qos.GrantBox)
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
func (sh *Shard) commitLocked(job *core.Job, g *qos.Grant) (*qos.Grant, error) {
	if err := sh.sched.Commit(*job, &g.Placement); err != nil {
		return nil, err
	}
	return sh.committedLocked(job, job.Chains[g.Placement.Chain].Quality, g), nil
}

// noteRejected records a router-level rejection on this shard, mirroring
// a single scheduler's Admit rejection bookkeeping (the probes already
// counted the per-chain planning work).
func (sh *Shard) noteRejected(job core.Job) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.noteRejectedLocked(&job)
}

func (sh *Shard) noteRejectedLocked(job *core.Job) {
	sh.sched.NoteRejected()
	if sh.observer != nil {
		sh.observer(qos.Decision{Kind: qos.KindRejected, Job: *job, Now: sh.now, Shard: sh.id})
	}
}

// admitDAG runs DAG admission control on this shard.
func (sh *Shard) admitDAG(job core.DAGJob) (*qos.Grant, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pl, err := sh.sched.AdmitDAG(job)
	if err != nil {
		return nil, err
	}
	return sh.committedLocked(&core.Job{ID: job.ID}, job.Alts[pl.Chain].Quality, &qos.Grant{Placement: *pl}), nil
}

// observe advances the shard's clock, folding elapsed history.
func (sh *Shard) observe(now float64) {
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

// resize sets the shard's processor count: growth always succeeds,
// shrinking is limited to uncommitted headroom (reservations are never
// preempted).
func (sh *Shard) resize(procs int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.sched.SetCapacity(procs); err != nil {
		return err
	}
	sh.version++
	sh.refreshLoadLocked()
	if sh.observer != nil {
		sh.observer(qos.Decision{Kind: qos.KindResize, Now: sh.now, Shard: sh.id, Procs: procs})
	}
	return nil
}
