package durable

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/fed"
	"milan/internal/frame"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/resbroker"
)

// Config configures a durable admission plane.
type Config struct {
	// FS is the filesystem seam (vfs.OS{} for production).
	FS vfs.FS
	// Dir is the log directory; created if absent.
	Dir string
	// Procs is the machine size used when the directory holds no prior
	// state (required); a recovered plane keeps its recovered shape.
	Procs int
	// Shards is the number of admission shards (default 1, where the
	// plane is the monolithic arbitrator and costs what it costs).
	Shards int
	// ProbeK is the router's probe fan-out (fed.Config.ProbeK).
	ProbeK int
	// Store tunes the log (sync policy, snapshot cadence).
	Store StoreOptions
	// Shed, if set, wires a qos.Shedder in front of admission; shed
	// refusals are journaled so recovery can prove they never became
	// grants.
	Shed *qos.ShedConfig
	// Metrics, if set, receives durability instrumentation.
	Metrics *Metrics
}

// Plane is a durable admission plane: one fed.Arbitrator, at any shard
// count, whose every committed decision is journaled to a write-ahead log
// before it is acknowledged.  It implements the same agent-facing surface
// (qosnet.Arbitrator), so servers and workloads run against it unchanged.
//
// The plane serializes decisions under one lock, and writes each one's
// record under it: the log order IS the decision order, which is what makes
// replay-on-open recovery bit-exact.  The lock is not held while a record
// is flushed.  An acknowledgment waits for the flush, after the lock is
// released, iff its record is a promise (see promises); everything else is
// acknowledged once written and rides the next promise's flush.
//
// No request walks the grant set: a grant is live while Finish() > now —
// the predicate State.prune applies on recovery — and an elapsed one just
// stops being seen (liveGrant) until a checkpoint's fold has found it and
// the seal after that drops it from the map.  Observe therefore costs the
// same whatever the backlog, and so does the call that carries a seal.
type Plane struct {
	mu    sync.Mutex
	store *store
	arb   *fed.Arbitrator
	shed  *qos.Shedder
	now   float64

	// grants ⊇ the live set: every live grant, plus those that elapsed and
	// no checkpoint has yet reported, no export yet swept.  delta is every
	// change made to it since the last seal, in order: what the next
	// checkpoint folds into the grant list of the one before.
	grants   map[int]GrantRecord
	delta    []grantDelta
	lastShed qos.ShedDecision
	// cut is the shards' state the last seal took, exported into the same
	// slices each time (fed.Arbitrator.ExportStateInto); it belongs to the
	// checkpoint in flight, and the next cut is taken only once that one
	// is over.
	cut fed.PlaneState
	// rec is the in-flight latency record of the decision currently
	// holding the plane lock (decisions are serialized, so one slot
	// suffices); it lets the shedder-wrapped path reach the timer without
	// widening the qos.Negotiator interface the shedder speaks.
	rec *phase.Rec
	// wait is the LSN the call currently holding the plane lock must see
	// flushed before it acknowledges (0: nothing); writeLocked sets it,
	// unlock takes it.
	wait uint64
}

// promises reports whether a record of kind k binds the plane to something
// a recovered plane must still honour — a reservation granted or moved, a
// machine resized — and so has to be on stable storage before its caller
// hears of it.  A refusal, a shed, a clock report or a completion binds it
// to nothing: lost, as a suffix of the log, it leaves a recovered plane that
// promised nothing it cannot keep (at worst a finished grant is listed live
// again until its reserved time runs out), so these are acknowledged once
// written.
func promises(k Kind) bool {
	switch k {
	case KindAdmit, kindRenegotiate, KindCapacity:
		return true
	}
	return false
}

// writeLocked journals rec, in decision order, under the plane lock.  Any
// flush its acknowledgment has to wait for is left to unlock.
func (p *Plane) writeLocked(rec *Record) error {
	wait, err := p.store.Write(rec, promises(rec.Kind))
	p.wait = max(p.wait, wait)
	return err
}

// unlock releases the plane lock and then, with the next decision already
// under way, waits for the flush of what this one wrote, if its
// acknowledgment needs one.
func (p *Plane) unlock() error {
	wait := p.wait
	p.wait = 0
	p.mu.Unlock()
	if wait == 0 {
		return nil
	}
	return p.store.syncTo(wait)
}

// unlockVerdict is unlock for a negotiation: the verdict goes back to the
// caller unless the flush it had to wait for failed.
func (p *Plane) unlockVerdict(g *qos.Grant, err error) (*qos.Grant, error) {
	if ferr := p.unlock(); ferr != nil {
		if g != nil {
			return nil, errNotJournaled(g.JobID, ferr)
		}
		return nil, ferr
	}
	return g, err
}

// errNotJournaled is what the caller of a granted job hears when the grant's
// record did not reach the log.
func errNotJournaled(jobID int, err error) error {
	return fmt.Errorf("durable: grant %d committed in memory but not journaled (plane poisoned, reopen required): %w", jobID, err)
}

// planeInner is the negotiator the shedder wraps: admission plus
// journaling, under the plane lock the caller already holds.
type planeInner struct{ p *Plane }

func (pi planeInner) Negotiate(job core.Job) (*qos.Grant, error) {
	return pi.p.negotiateLocked(job, pi.p.rec)
}

// OpenPlane recovers (or creates) a durable plane from cfg.Dir.
func OpenPlane(cfg Config) (*Plane, Recovered, error) { return openTapped(cfg, nil) }

// openTapped is OpenPlane with tap, if set, chained in front of the plane's
// own subscription to its arbitrator's decisions (the observer ≡ journal
// test listens there).
func openTapped(cfg Config, tap func(qos.Decision)) (*Plane, Recovered, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	genesis, err := genesis(cfg.Procs, shards, 0)
	if err != nil {
		return nil, Recovered{}, err
	}
	store, rec, err := open(openConfig{
		FS: cfg.FS, Dir: cfg.Dir,
		Genesis: genesis, Store: cfg.Store, Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, Recovered{}, err
	}
	st := &rec.State
	p := &Plane{store: store, now: st.Now, grants: make(map[int]GrantRecord, len(st.Grants))}
	for _, g := range st.Grants {
		p.grants[g.JobID] = g
	}
	observer := p.observe
	if tap != nil {
		observer = func(d qos.Decision) { tap(d); p.observe(d) }
	}
	arb, err := fed.New(fed.Config{
		Procs: st.procs(), Shards: len(st.Shards), ProbeK: cfg.ProbeK,
		Observer: observer,
	})
	if err != nil {
		store.Close()
		return nil, Recovered{}, err
	}
	if err := arb.RestoreState(fed.PlaneState{Now: st.Now, Shards: st.Shards}); err != nil {
		store.Close()
		return nil, Recovered{}, fmt.Errorf("durable: restore plane: %w", err)
	}
	p.arb = arb
	if cfg.Shed != nil {
		// The shedder's own accounting (in-flight areas, fairness clocks)
		// is rebuilt empty at open: it is a rate controller, not durable
		// state.  Its refusals ARE durable — each is journaled before the
		// caller sees ErrShed.
		sc := *cfg.Shed
		inner := sc.Observer
		sc.Observer = func(d qos.ShedDecision) {
			p.lastShed = d
			if inner != nil {
				inner(d)
			}
		}
		shed, err := qos.NewShedder(planeInner{p}, sc)
		if err != nil {
			store.Close()
			return nil, Recovered{}, err
		}
		p.shed = shed
	}
	return p, rec, nil
}

// observe is the plane's subscription to its arbitrator's decision stream.
// An admission, a rejection and a clock advance are journaled by the
// operation that asked for them, which knows what its caller is owed; a
// capacity move has no such operation (the rebalancer resizes shards one
// processor at a time), so it is journaled here.  It fires under the shard
// lock inside a plane-locked operation, so the record lands in the plane's
// decision order, and it is flushed there too: resizes are rare.  An
// observer cannot return an error; a failed append poisons the store, and
// SetTotalCapacity/Rebalance report that once the rebalancer returns.
func (p *Plane) observe(d qos.Decision) {
	if d.Kind == qos.KindResize {
		_, _ = p.store.Append(&Record{Kind: KindCapacity, Shard: d.Shard, Procs: d.Procs})
	}
}

// poisonedLocked returns the store's poison error as the plane reports it
// to a caller asking for a decision, or nil.
func (p *Plane) poisonedLocked() error {
	if err := p.store.Poisoned(); err != nil {
		return fmt.Errorf("durable: plane poisoned, reopen required: %w", err)
	}
	return nil
}

// SetTotalCapacity resizes the plane toward total processors under the
// plane lock, journaling one KindCapacity record per single-processor
// shard resize (the fed rebalancer's unit of work), so recovery
// reconstructs the exact post-resize shard shapes.  Growth
// always succeeds; shrink stops early when no shard can give up a
// processor without preempting a committed reservation, returning the
// achieved total alongside the shortfall error.
func (p *Plane) SetTotalCapacity(total int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.poisonedLocked(); err != nil {
		return p.arb.Procs(), err
	}
	got, err := p.arb.Rebalancer().SetTotalCapacity(total)
	// A resize whose record failed to journal outranks the rebalancer's own
	// result: the moves it made are not in the log.
	if perr := p.poisonedLocked(); perr != nil {
		return got, perr
	}
	p.maybeSnapshotLocked()
	return got, err
}

// rebalance runs up to maxMoves processor migrations (len(shards) when
// maxMoves <= 0) under the plane lock; every move journals its two
// shard resizes before the plane acknowledges anything else.
func (p *Plane) rebalance(maxMoves int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.poisonedLocked(); err != nil {
		return 0, err
	}
	moved := p.arb.Rebalancer().Rebalance(maxMoves)
	if err := p.poisonedLocked(); err != nil {
		return moved, err
	}
	p.maybeSnapshotLocked()
	return moved, nil
}

// AttachBroker makes the durable plane's total capacity follow a
// resource broker's pool (resbroker.Broker.Follow): every significant
// machine registration or deregistration resizes the plane to the
// broker's total and runs a rebalancing pass — with every resize
// journaled, so a crash between broker events recovers the exact capacity
// the live pool had.  The returned stop function detaches the follower.
func (p *Plane) AttachBroker(b *resbroker.Broker, threshold int) (stop func()) {
	return b.Follow(p.Procs(), threshold, func(procs int) {
		if _, err := p.SetTotalCapacity(procs); err != nil {
			return // partial shrink or poisoned plane; next event retries
		}
		_, _ = p.rebalance(0)
	})
}

// Err returns the store's poison error, if any: non-nil means a write,
// flush or snapshot failed, the in-memory plane may be ahead of the log,
// and the plane refuses further decisions until reopened.
func (p *Plane) Err() error { return p.store.Poisoned() }

// Negotiate runs admission control and journals the outcome.  A grant is
// returned only after its admit record reached the log (and stable
// storage, under SyncAlways); a refusal once its record is written.  A
// failed write or flush returns that error and poisons the plane instead
// of acknowledging.
func (p *Plane) Negotiate(job core.Job) (*qos.Grant, error) {
	return p.NegotiateTimed(job, nil)
}

// NegotiateTimed is Negotiate with latency-phase attribution (rec may be
// nil): plane-lock acquisition counts as route, the wrapped arbitrator
// attributes its own phases, and the journal phase is the record's write
// under the lock plus, past the lock, the wait for its flush.
func (p *Plane) NegotiateTimed(job core.Job, lrec *phase.Rec) (*qos.Grant, error) {
	p.mu.Lock()
	lrec.Mark(phase.Route)
	g, err := p.unlockVerdict(p.decideLocked(job, lrec))
	lrec.Mark(phase.Journal)
	return g, err
}

// decideLocked is one admission, shedder first if there is one, with its
// record written.
func (p *Plane) decideLocked(job core.Job, lrec *phase.Rec) (*qos.Grant, error) {
	// The journal carries a tenant behind a length the frame codec caps:
	// a longer one would come back from recovery cut short.
	if len(job.Tenant) > frame.MaxString {
		return nil, fmt.Errorf("durable: job %d: tenant of %d bytes is over the journal's limit of %d",
			job.ID, len(job.Tenant), frame.MaxString)
	}
	if err := p.poisonedLocked(); err != nil {
		return nil, err
	}
	if p.shed == nil {
		return p.negotiateLocked(job, lrec)
	}
	p.lastShed = qos.ShedDecision{}
	p.rec = lrec
	g, err := p.shed.Negotiate(job)
	p.rec = nil
	if err != nil && errors.Is(err, qos.ErrShed) {
		rec := &Record{
			Kind: kindShed, JobID: job.ID,
			Tenant: job.Tenant, Class: job.Class,
			Reason: string(p.lastShed.Reason),
		}
		if aerr := p.writeLocked(rec); aerr != nil {
			return nil, aerr
		}
		p.maybeSnapshotLocked()
	}
	return g, err
}

func (p *Plane) negotiateLocked(job core.Job, lrec *phase.Rec) (*qos.Grant, error) {
	g, err := p.arb.NegotiateTimed(job, lrec)
	if err != nil {
		if errors.Is(err, qos.ErrRejected) {
			// Rejections count on shard 0 in the journal; per-shard
			// rejection attribution is diagnostics, not durable state
			// (the oracle compares plane-merged counters).
			rec := &Record{Kind: KindReject, JobID: job.ID, Tenant: job.Tenant, Class: job.Class}
			if aerr := p.writeLocked(rec); aerr != nil {
				return nil, aerr
			}
			p.maybeSnapshotLocked()
		}
		return nil, err
	}
	rec := &Record{
		Kind: KindAdmit, Shard: g.Shard,
		JobID: g.JobID, Chain: g.Chain,
		Quality: g.Quality, Tunable: job.Tunable(),
		Tenant: job.Tenant, Class: job.Class,
		Tasks: g.Placement.Tasks,
	}
	if aerr := p.writeLocked(rec); aerr != nil {
		return nil, errNotJournaled(g.JobID, aerr)
	}
	p.liveSetChangedLocked(grantDelta{g: GrantRecord{
		JobID: g.JobID, Shard: g.Shard, Chain: g.Chain,
		Quality: g.Quality, Tunable: job.Tunable(),
		Tenant: job.Tenant, Class: job.Class,
		Tasks: g.Placement.Tasks,
	}})
	p.maybeSnapshotLocked()
	return g, nil
}

// NegotiateDAG runs DAG admission control, journaling grants.  DAG
// rejections are not journaled (like the planner's work counters they are
// diagnostics; replay does not reconstruct them).
func (p *Plane) NegotiateDAG(job core.DAGJob) (*qos.Grant, error) {
	p.mu.Lock()
	return p.unlockVerdict(p.negotiateDAGLocked(job))
}

func (p *Plane) negotiateDAGLocked(job core.DAGJob) (*qos.Grant, error) {
	if err := p.poisonedLocked(); err != nil {
		return nil, err
	}
	g, err := p.arb.NegotiateDAG(job)
	if err != nil {
		return nil, err
	}
	tunable := len(job.Alts) > 1
	rec := &Record{
		Kind: KindAdmit, Shard: g.Shard,
		JobID: g.JobID, Chain: g.Chain,
		Quality: g.Quality, Tunable: tunable,
		Tasks: g.Placement.Tasks,
	}
	if aerr := p.writeLocked(rec); aerr != nil {
		return nil, errNotJournaled(g.JobID, aerr)
	}
	p.liveSetChangedLocked(grantDelta{g: GrantRecord{
		JobID: g.JobID, Shard: g.Shard, Chain: g.Chain,
		Quality: g.Quality, Tunable: tunable,
		Tasks: g.Placement.Tasks,
	}})
	p.maybeSnapshotLocked()
	return g, nil
}

// Observe advances the plane's clock, journaling the advance so replay
// folds elapsed history at exactly the same points the live plane did.
func (p *Plane) Observe(now float64) {
	p.mu.Lock()
	p.observeLocked(now)
	_ = p.unlock() // a failed flush has poisoned the store; Err reports it
}

func (p *Plane) observeLocked(now float64) {
	if p.store.Poisoned() != nil || now <= p.now {
		return
	}
	// Grants that finish at or before now leave the live set here, by the
	// clock alone, exactly as recovery's Prune drops them.
	p.now = now
	p.shed.Observe(now)
	p.arb.Observe(now)
	if err := p.writeLocked(&Record{Kind: KindObserve, Now: now}); err != nil {
		return
	}
	p.maybeSnapshotLocked()
}

// JobCompleted journals a granted reservation's completion and releases
// the shedder's in-flight accounting.  Unknown job IDs and grants whose
// reservation has already elapsed are a no-op: nothing is journaled.
func (p *Plane) JobCompleted(jobID int, now float64) error {
	p.mu.Lock()
	err := p.jobCompletedLocked(jobID, now)
	if ferr := p.unlock(); err == nil {
		err = ferr
	}
	return err
}

func (p *Plane) jobCompletedLocked(jobID int, now float64) error {
	if err := p.store.Poisoned(); err != nil {
		return err
	}
	g, ok := p.liveGrant(jobID)
	if !ok {
		return nil
	}
	p.shed.JobCompleted(jobID, now)
	p.liveSetChangedLocked(grantDelta{g: GrantRecord{JobID: jobID}, done: true})
	if err := p.writeLocked(&Record{Kind: kindComplete, Shard: g.Shard, JobID: jobID, Finish: now}); err != nil {
		return err
	}
	p.maybeSnapshotLocked()
	return nil
}

// liveSetChangedLocked makes one change to the live set — a grant committed
// or completed — in the map every request reads and in the delta the next
// checkpoint folds.  The delta's two buffers change hands at each seal, so
// a record costs no allocation here.
func (p *Plane) liveSetChangedLocked(d grantDelta) {
	if d.done {
		delete(p.grants, d.g.JobID)
	} else {
		p.grants[d.g.JobID] = d.g
	}
	p.delta = append(p.delta, d)
}

// maybeSnapshotLocked seals the log for a checkpoint when enough records
// accumulated and none is in flight; if one is, the next record asks again
// and the log grows meanwhile.  A checkpoint failure poisons the store but
// never revokes an already acknowledged decision; the call that carried the
// seal fails only if its own record still had a flush to wait for.
func (p *Plane) maybeSnapshotLocked() {
	if p.store.shouldSnapshot() {
		p.checkpointLocked()
	}
}

// checkpointLocked starts a checkpoint at the log head unless one is still
// running, and returns the one now in flight.  What the call itself pays is
// the cut: the clock, the shards' profiles copied into the last cut's
// slices, and a fresh segment.  The grant set is not walked — the
// checkpoint's goroutine folds it from delta — and the one before is
// collected on the way.
func (p *Plane) checkpointLocked() (ck *checkpoint, started bool) {
	last := p.store.ckpt
	if last.running() {
		return last, false
	}
	p.collectLocked(last)
	p.arb.ExportStateInto(&p.cut)
	ck = p.store.seal(State{LSN: p.store.nextLSN() - 1, Now: p.now, Shards: p.cut.Shards}, p.delta)
	p.delta = last.delta[:0]
	return ck, true
}

// collectLocked drops from the map the grants a finished checkpoint's fold
// found elapsed, but for an ID granted anew since that checkpoint's cut.
// Every grant since is in delta, so an ID below the lowest of them cannot be
// one — the common case, IDs rising, and a plain delete; the others are
// dropped only if what the map holds has run out too.  The list goes back
// to the store for the next fold.
func (p *Plane) collectLocked(ck *checkpoint) {
	elapsed := ck.elapsed
	if elapsed == nil {
		return // collected already, or the checkpoint failed before its fold
	}
	p.store.elapsed, ck.elapsed = elapsed[:0], nil // no fold runs before the next seal
	if len(elapsed) == 0 {
		return
	}
	fresh := math.MaxInt
	for i := range p.delta {
		if d := &p.delta[i]; !d.done {
			fresh = min(fresh, d.g.JobID)
		}
	}
	for _, id := range elapsed {
		if id >= fresh {
			if g, ok := p.grants[id]; !ok || g.finish() > p.now {
				continue
			}
		}
		delete(p.grants, id)
	}
}

// WaitCheckpoint returns once the checkpoint in flight, if any, is over, and
// reports its failure.  It starts none and flushes nothing.  A harness about
// to take the disk from under the plane — crash it, copy it — waits here
// first: a checkpoint's goroutine would otherwise go on renaming and
// removing files in a directory it no longer owns.
func (p *Plane) WaitCheckpoint() error {
	p.mu.Lock()
	ck := p.store.ckpt
	p.mu.Unlock()
	ck.wait()
	return ck.err
}

func (p *Plane) exportStateLocked() State {
	return State{
		LSN: p.store.nextLSN() - 1, Now: p.now,
		Shards: p.arb.ExportState().Shards,
		Grants: p.sortedLiveGrantsLocked(),
	}
}

// liveGrant is the point lookup into the live set: an entry whose
// reservation has elapsed is still in the map until the next sweep, and
// is reported absent.
func (p *Plane) liveGrant(jobID int) (GrantRecord, bool) {
	g, ok := p.grants[jobID]
	if !ok || g.finish() <= p.now {
		return GrantRecord{}, false
	}
	return g, true
}

// sortedLiveGrantsLocked returns the live grants by ascending job ID and
// drops the elapsed ones from the map on the way: the one walk of the
// grant set, paid by Grants and ExportState and by no request — and the
// oracle a checkpoint's fold is held to.
func (p *Plane) sortedLiveGrantsLocked() []GrantRecord {
	ids := make([]int, 0, len(p.grants))
	for id, g := range p.grants {
		if g.finish() <= p.now {
			delete(p.grants, id)
			continue
		}
		ids = append(ids, id)
	}
	// Ordering the IDs and fetching each grant once moves 8 bytes per
	// comparison where sorting the records would move 88.
	slices.Sort(ids)
	live := make([]GrantRecord, len(ids))
	for i, id := range ids {
		live[i] = p.grants[id]
	}
	return live
}

// ExportState returns the plane's current durable state (tests, oracles).
func (p *Plane) ExportState() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exportStateLocked()
}

// Grants returns the live committed grants, sorted by job ID.
func (p *Plane) Grants() []GrantRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sortedLiveGrantsLocked()
}

// Stats returns the plane-wide scheduler counters.
func (p *Plane) Stats() core.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arb.Stats()
}

// Utilization returns reserved capacity as a fraction over [origin, horizon].
func (p *Plane) Utilization(origin, horizon float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arb.Utilization(origin, horizon)
}

// Now returns the last observed time.
func (p *Plane) Now() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// Procs returns the plane's total processor count.
func (p *Plane) Procs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arb.Procs()
}

// Close waits for a checkpoint in flight, flushes the written tail (see
// Store.Close) and closes the log.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Close()
}
