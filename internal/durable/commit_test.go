package durable

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/qos"
	"milan/internal/workload"
)

// This file holds the commit path to its contract now that an append is two
// halves under two locks: what waits for the disk and what does not, what one
// flush releases, what two flushes in flight owe each other, what a clean
// stop leaves behind, what a crash at each point between a record's write and
// its acknowledgment recovers, and what four callers and a failing disk do to
// each other under the race detector.

// errDead is what a filesystem call returns once the process that made it is
// gone.
var errDead = errors.New("gate: the process was killed")

// gateEvent is one call on the log directory or on a file in it, seen either
// before it reaches the filesystem below or after it has.  phase is where
// Classify puts a checkpoint that stood in from once the call is through.
type gateEvent struct {
	call        Call
	after       bool
	name        string
	data        []byte // the bytes of a write
	from, phase Phase
}

// record decodes the journal record a segment write carries.
func (ev gateEvent) record() (Record, bool) {
	if ev.call != CallWrite || !IsSegment(ev.name) || IsSeal(ev.data) {
		return Record{}, false
	}
	rec, err := DecodeRecord(ev.data[frame.HeaderLen:])
	return rec, err == nil
}

// segmentSync matches a flush of the journal; admitWrite the write of a
// grant's record; headerWrite that of a fresh segment's header.
func segmentSync(after bool) func(gateEvent) bool {
	return func(ev gateEvent) bool { return ev.call == CallSync && ev.after == after && IsSegment(ev.name) }
}

func admitWrite(after bool) func(gateEvent) bool {
	return func(ev gateEvent) bool {
		rec, ok := ev.record()
		return ok && ev.after == after && rec.Kind == KindAdmit
	}
}

func headerWrite(after bool) func(gateEvent) bool {
	return func(ev gateEvent) bool {
		return ev.call == CallWrite && ev.after == after && IsSegment(ev.name) && IsSeal(ev.data)
	}
}

// firstOf matches the first call of a checkpoint's phase ph, before or after.
func firstOf(ph Phase, after bool) func(gateEvent) bool {
	return func(ev gateEvent) bool { return ev.from != ph && ev.phase == ph && ev.after == after }
}

// gateFS is the filesystem under a plane with a gate on every call: a test
// parks the caller that reaches a chosen one — a request's goroutine or a
// checkpoint's — looks at the plane while it stands there, and lets it go or
// kills the process.  Killed, the filesystem answers errDead to whatever the
// dead process's goroutines still ask of it and passes nothing down, so the
// crash is taken exactly at the gate.  It classifies every call as it comes
// and keeps the phase the calls through have left a checkpoint in.  Nothing
// in the plane or the store knows it is there.
type gateFS struct {
	vfs.FS
	dead atomic.Bool
	// segSyncs counts the journal flushes that reached the filesystem below.
	segSyncs atomic.Int64
	// watch, if set, sees every event first.
	watch func(gateEvent)

	mu    sync.Mutex
	parks []*park
	at    Phase // where the calls through have left a checkpoint
}

type park struct {
	match   func(gateEvent) bool
	reached chan struct{}
	resume  chan struct{}
}

// parkAt parks the next caller whose event matches, once.
func (g *gateFS) parkAt(match func(gateEvent) bool) *park {
	pk := &park{match: match, reached: make(chan struct{}), resume: make(chan struct{})}
	g.mu.Lock()
	g.parks = append(g.parks, pk)
	g.mu.Unlock()
	return pk
}

func (pk *park) release() { close(pk.resume) }

// pass runs one event through the gate and reports whether the process is
// still alive on the other side.
func (g *gateFS) pass(ev gateEvent) bool {
	if g.dead.Load() {
		return false
	}
	if g.watch != nil {
		g.watch(ev)
	}
	g.mu.Lock()
	var hit *park
	for i, pk := range g.parks {
		if pk.match(ev) {
			hit, g.parks = pk, slices.Delete(g.parks, i, i+1)
			break
		}
	}
	g.mu.Unlock()
	if hit != nil {
		close(hit.reached)
		<-hit.resume
	}
	return !g.dead.Load()
}

// standing is the phase a checkpoint stands in: that of the last call
// through, whatever calls are parked.
func (g *gateFS) standing() Phase {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.at
}

// through takes one call to the gate, down to the filesystem below and to the
// gate again.
func (g *gateFS) through(ev gateEvent, call func() error) error {
	g.mu.Lock()
	ev.from, ev.phase = g.at, Classify(ev.call, ev.name, g.at)
	g.mu.Unlock()
	if !g.pass(ev) {
		return errDead
	}
	err := call()
	g.mu.Lock()
	g.at = ev.phase
	g.mu.Unlock()
	ev.after = true
	if !g.pass(ev) {
		return errDead
	}
	return err
}

func (g *gateFS) Create(name string) (f vfs.File, err error) {
	err = g.through(gateEvent{call: CallCreate, name: name}, func() (e error) { f, e = g.FS.Create(name); return e })
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g, name: name}, nil
}

func (g *gateFS) OpenAppend(name string) (f vfs.File, err error) {
	err = g.through(gateEvent{call: CallCreate, name: name}, func() (e error) { f, e = g.FS.OpenAppend(name); return e })
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g, name: name}, nil
}

func (g *gateFS) Rename(oldname, newname string) error {
	return g.through(gateEvent{call: CallRename, name: newname}, func() error { return g.FS.Rename(oldname, newname) })
}

func (g *gateFS) Remove(name string) error {
	return g.through(gateEvent{call: CallRemove, name: name}, func() error { return g.FS.Remove(name) })
}

// ReadDir is recovery's alone, and no event: a checkpoint lists nothing.
func (g *gateFS) ReadDir(dir string) ([]string, error) {
	if g.dead.Load() {
		return nil, errDead
	}
	return g.FS.ReadDir(dir)
}

func (g *gateFS) SyncDir(dir string) error {
	return g.through(gateEvent{call: CallSyncDir, name: dir}, func() error { return g.FS.SyncDir(dir) })
}

type gateFile struct {
	vfs.File
	g    *gateFS
	name string
}

func (f gateFile) Write(p []byte) (n int, err error) {
	err = f.g.through(gateEvent{call: CallWrite, name: f.name, data: p}, func() (e error) { n, e = f.File.Write(p); return e })
	if err == errDead {
		n = 0
	}
	return n, err
}

func (f gateFile) Sync() error {
	return f.g.through(gateEvent{call: CallSync, name: f.name}, func() error {
		err := f.File.Sync()
		if err == nil && IsSegment(f.name) {
			f.g.segSyncs.Add(1)
		}
		return err
	})
}

func (f gateFile) Close() error {
	return f.g.through(gateEvent{call: CallClose, name: f.name}, f.File.Close)
}

// rig is one plane on a gated disk, full enough that the test can ask it for
// a grant or for a refusal at will, with the script that rebuilds it at any
// LSN.
type rig struct {
	t     *testing.T
	fault *vfs.Fault
	gate  *gateFS
	met   *Metrics
	p     *Plane
	sc    script
	jobs  int
}

type verdict struct {
	g   *qos.Grant
	err error
}

var rigJob = workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}

func newRig(t *testing.T, opts StoreOptions) *rig {
	t.Helper()
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 1 << 20 // a snapshot only when the test takes one
	}
	r := &rig{t: t, fault: vfs.NewFault(vfs.NewMem()), met: NewMetrics(obs.NewRegistry())}
	r.gate = &gateFS{FS: r.fault}
	cfg := Config{FS: r.gate, Dir: "log", Procs: 16, Store: opts, Metrics: r.met}
	p, _, err := OpenPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.p, r.sc.cfg = p, cfg
	r.sc.cfg.Metrics = nil
	// Jobs released at the plane's clock are granted until the horizon they
	// share is full, and refused from then on.
	for {
		job := r.refusable()
		_, err := p.Negotiate(job)
		r.wrote(func(q *Plane) { q.Negotiate(job) })
		if errors.Is(err, qos.ErrRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// One grant on top, so that everything so far is flushed.
	if v := r.negotiate(r.grantable()); v.err != nil {
		t.Fatal(v.err)
	}
	if opts.Sync == SyncAlways && r.p.DurableLSN() != r.written() {
		t.Fatalf("rig starts with lsn %d written and %d durable", r.written(), r.p.DurableLSN())
	}
	return r
}

// grantable is a job with a stretch of the far future to itself.
func (r *rig) grantable() core.Job {
	r.jobs++
	return rigJob.Job(r.jobs, 1e4+1e3*float64(r.jobs), workload.Tunable)
}

// refusable is a job for the stretch that newRig filled.
func (r *rig) refusable() core.Job {
	r.jobs++
	return rigJob.Job(r.jobs, 0, workload.Tunable)
}

func (r *rig) written() uint64 { return r.p.store.written.Load() }

// wrote notes the call whose record is the last one written.
func (r *rig) wrote(replay func(*Plane)) {
	r.sc.calls = append(r.sc.calls, scriptCall{replay, r.written()})
}

// negotiate is a call the test waits for.
func (r *rig) negotiate(job core.Job) verdict {
	g, err := r.p.Negotiate(job)
	r.wrote(func(q *Plane) { q.Negotiate(job) })
	return verdict{g, err}
}

// start is a call the test expects to park.
func (r *rig) start(job core.Job) <-chan verdict {
	ch := make(chan verdict, 1)
	go func() {
		g, err := r.p.Negotiate(job)
		ch <- verdict{g, err}
	}()
	return ch
}

// startWritten is start, returning once the call's record is in the log.
func (r *rig) startWritten(job core.Job) <-chan verdict {
	r.t.Helper()
	lsn := r.written() + 1
	ch := r.start(job)
	r.await(func() bool { return r.written() >= lsn }, fmt.Sprintf("the write of record %d", lsn))
	r.wrote(func(q *Plane) { q.Negotiate(job) })
	return ch
}

// await polls until cond holds.
func (r *rig) await(cond func() bool, what string) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("%s never happened", what)
		}
	}
}

func (r *rig) reached(pk *park, what string) {
	r.t.Helper()
	select {
	case <-pk.reached:
	case <-time.After(10 * time.Second):
		r.t.Fatalf("nobody reached %s", what)
	}
}

func (r *rig) result(ch <-chan verdict, who string) verdict {
	r.t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		r.t.Fatalf("%s never returned", who)
		return verdict{}
	}
}

func (r *rig) pending(ch <-chan verdict, who string) {
	r.t.Helper()
	select {
	case v := <-ch:
		r.t.Fatalf("%s returned (%v, %v) while its record was not flushed", who, v.g, v.err)
	default:
	}
}

// planeLockHeld reports whether some call holds the plane lock right now.
func (r *rig) planeLockHeld() bool {
	if r.p.mu.TryLock() {
		r.p.mu.Unlock()
		return false
	}
	return true
}

// kill takes the crash here: the process dies with its callers wherever they
// stand, the disk forgets what was not flushed.
func (r *rig) kill() {
	r.gate.dead.Store(true)
	r.fault.Crash()
}

// recover reopens the directory a kill left and holds the recovered plane to
// the plane as it stood at the LSN it recovered.
func (r *rig) recover() State {
	r.t.Helper()
	cfg := r.sc.cfg
	cfg.FS = r.fault
	p, rec, err := OpenPlane(cfg)
	if err != nil {
		r.t.Fatalf("recovery: %v", err)
	}
	defer p.Close()
	if rec.State.LSN > r.written() {
		r.t.Fatalf("recovered lsn %d, only %d records were written", rec.State.LSN, r.written())
	}
	want := r.sc.at(r.t, rec.State.LSN)
	if err := DiffStates(&rec.State, &want); err != nil {
		r.t.Fatalf("recovered state is not the plane at lsn %d: %v", rec.State.LSN, err)
	}
	return rec.State
}

func hasGrant(st State, jobID int) bool {
	return slices.ContainsFunc(st.Grants, func(g GrantRecord) bool { return g.JobID == jobID })
}

// A refusal, a clock report and a completion are acknowledged once written:
// none of them moves DurableLSN or reaches File.Sync.
func TestOnlyPromisesWaitForTheDisk(t *testing.T) {
	r := newRig(t, StoreOptions{})
	durable, syncs, fsyncs := r.p.DurableLSN(), r.fault.Counts().Syncs, r.met.Fsyncs.Value()
	live := r.p.Grants()

	if v := r.negotiate(r.refusable()); !errors.Is(v.err, qos.ErrRejected) {
		t.Fatalf("the filled stretch took another job: %v", v.err)
	}
	r.p.Observe(1)
	if err := r.p.JobCompleted(live[len(live)-1].JobID, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.written(); got != durable+3 {
		t.Fatalf("a refusal, a clock report and a completion wrote %d records", got-durable)
	}
	if got := r.p.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN moved from %d to %d with no promise made", durable, got)
	}
	if got := r.fault.Counts().Syncs - syncs; got != 0 || r.met.Fsyncs.Value() != fsyncs {
		t.Fatalf("%d File.Sync calls, durable_fsyncs %d -> %d, with no promise made", got, fsyncs, r.met.Fsyncs.Value())
	}

	// The next promise's flush carries them.
	v := r.negotiate(r.grantable())
	if v.err != nil {
		t.Fatal(v.err)
	}
	if got := r.p.DurableLSN(); got != r.written() || got != durable+4 {
		t.Fatalf("grant acknowledged at lsn %d with the log durable to %d", r.written(), got)
	}
	if got := r.fault.Counts().Syncs - syncs; got != 1 || r.met.Fsyncs.Value() != fsyncs+1 {
		t.Fatalf("one grant took %d File.Sync calls (durable_fsyncs +%d)", got, r.met.Fsyncs.Value()-fsyncs)
	}
}

// Every grant of an ordered stream comes back with its own record durable,
// one flush each; the refusals between them add none.
func TestGrantReturnsOnlyOnceDurable(t *testing.T) {
	ft := vfs.NewFault(vfs.NewMem())
	p, _ := openPlane(t, ft, StoreOptions{SnapshotEvery: 1 << 20})
	syncs := ft.Counts().Syncs
	grants, refusals := int64(0), 0
	for _, job := range planeStream(200, 37) {
		p.Observe(job.Release)
		_, err := p.Negotiate(job)
		lsn := p.store.nextLSN() - 1
		switch {
		case err == nil:
			grants++
			if got := p.DurableLSN(); got != lsn {
				t.Fatalf("job %d granted at lsn %d, log durable to %d", job.ID, lsn, got)
			}
		case errors.Is(err, qos.ErrRejected):
			refusals++
		default:
			t.Fatal(err)
		}
	}
	if grants == 0 || refusals == 0 {
		t.Fatalf("%d grants, %d refusals: the stream must have both", grants, refusals)
	}
	if got := ft.Counts().Syncs - syncs; got != grants {
		t.Fatalf("%d grants and %d refusals took %d flushes, want one per grant", grants, refusals, got)
	}
}

// parkTwoFlushes starts two grants and parks each one's flush at its sync,
// so that both of the store's flushes are in flight.
func (r *rig) parkTwoFlushes() (flushes [2]*park, grants [2]<-chan verdict) {
	r.t.Helper()
	for i := range flushes {
		flushes[i] = r.gate.parkAt(segmentSync(false))
		grants[i] = r.startWritten(r.grantable())
		r.reached(flushes[i], fmt.Sprintf("grant %d's flush", i+1))
	}
	return flushes, grants
}

// Two flushes run at once, each the one its grant leads; two grants written
// while both are under way wait for a slot, and the one flush that takes it
// releases them both.
func TestOneFlushReleasesEveryGrantWrittenBeforeIt(t *testing.T) {
	r := newRig(t, StoreOptions{})
	fsyncs, base := r.met.Fsyncs.Value(), r.written()

	parked, running := r.parkTwoFlushes()
	third := r.startWritten(r.grantable())
	fourth := r.startWritten(r.grantable())
	grants := []<-chan verdict{running[0], running[1], third, fourth}
	for _, ch := range grants {
		r.pending(ch, "a grant")
	}
	for _, pk := range parked {
		pk.release()
	}
	for i, ch := range grants {
		if v := r.result(ch, "a grant"); v.err != nil {
			t.Fatalf("grant %d: %v", i+1, v.err)
		}
	}
	if got := r.p.DurableLSN(); got != base+4 {
		t.Fatalf("durable to %d, want %d", got, base+4)
	}
	// Each parked flush had started before the last two grants were written
	// and covers its own; one more covers both of them.
	if got := r.met.Fsyncs.Value() - fsyncs; got != 3 {
		t.Fatalf("four grants, two written behind two flushes in progress, took %d flushes, want 3", got)
	}
}

// Close waits for the flushes in flight: it returns once both have
// published, what they published survives a power loss, and a second Close
// does nothing.
func TestCloseWaitsForFlushesInFlight(t *testing.T) {
	r := newRig(t, StoreOptions{})
	base, syncs := r.written(), r.gate.segSyncs.Load()
	parked, grants := r.parkTwoFlushes()
	closed := make(chan error, 1)
	go func() { closed <- r.p.Close() }()
	for _, pk := range parked {
		// Nothing marks a Close that waits; the sleep gives one that does not
		// the time to return.
		time.Sleep(10 * time.Millisecond)
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) with a flush still parked", err)
		default:
		}
		pk.release()
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	for i, ch := range grants {
		if v := r.result(ch, "a grant"); v.err != nil {
			t.Fatalf("grant %d: %v", i+1, v.err)
		}
	}
	if got := r.p.DurableLSN(); got != base+2 {
		t.Fatalf("durable to %d after Close, want %d", got, base+2)
	}
	// The two flushes covered everything written: Close had nothing to add.
	if got := r.gate.segSyncs.Load() - syncs; got != 2 {
		t.Fatalf("%d journal syncs for two grants and a Close, want 2", got)
	}
	if err := r.p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r.fault.Crash()
	if st := r.recover(); st.LSN != base+2 || !hasGrant(st, r.jobs-1) || !hasGrant(st, r.jobs) {
		t.Fatalf("recovered lsn %d, want both grants at %d", st.LSN, base+2)
	}
}

// A clean stop leaves nothing riding: Close flushes the written tail under
// always and every-n, and leaves never to the operating system.
func TestCloseFlushesTheWrittenTail(t *testing.T) {
	for _, tc := range []struct {
		opts    StoreOptions
		flushed bool
	}{
		{StoreOptions{Sync: SyncAlways}, true},
		{StoreOptions{Sync: SyncEveryN, SyncEvery: 1000}, true},
		{StoreOptions{Sync: syncNever}, false},
	} {
		r := newRig(t, tc.opts)
		durable := r.p.DurableLSN()
		for i := 0; i < 3; i++ {
			if v := r.negotiate(r.refusable()); !errors.Is(v.err, qos.ErrRejected) {
				t.Fatalf("%s: %v", tc.opts.Sync, v.err)
			}
		}
		r.p.Observe(2)
		written := r.written()
		if tc.opts.Sync == SyncAlways && (written != durable+4 || r.p.DurableLSN() != durable) {
			t.Fatalf("always: %d written, %d durable before Close, want %d and %d", written, r.p.DurableLSN(), durable+4, durable)
		}
		syncs := r.fault.Counts().Syncs
		if err := r.p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := r.fault.Counts().Syncs - syncs; (got == 1) != tc.flushed || got > 1 {
			t.Fatalf("%s: Close issued %d flushes", tc.opts.Sync, got)
		}
		if err := r.p.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", tc.opts.Sync, err)
		}
		r.fault.Crash()
		_, rec := openPlane(t, r.fault, StoreOptions{})
		if tc.flushed && rec.State.LSN != written {
			t.Fatalf("%s: power loss after a clean Close recovered lsn %d of %d written", tc.opts.Sync, rec.State.LSN, written)
		}
		if !tc.flushed && rec.State.LSN == written {
			t.Fatalf("never: Close flushed the log")
		}
	}
}

// untagged marks a position that is not a checkpoint's: its crash is held
// to no phase.
const untagged Phase = -1

// crashPositionNames are the points between a decision and its
// acknowledgment, and between two callers, at which a crash has its own
// story.  A checkpoint's position is tagged with the phase Classify says the
// checkpoint stands in at the crash.  TestCrashPositionSweep fails if any
// name has no scenario that reaches it, if a tag is not where its scenario
// crashes, and if a phase has no position.
var crashPositionNames = []struct {
	name  string
	phase Phase
}{
	{"written-unlocked", untagged},       // record written, plane lock still held
	{"unlocked-flush", untagged},         // plane lock released, flush not started
	{"mid-flush-second-grant", untagged}, // a flush done, a grant written behind it waiting for its own
	{"flush-ack", untagged},              // record flushed, caller not yet told
	{"refusal-ahead-of-flush", untagged}, // a refusal acknowledged with an unflushed grant ahead of it
	// A checkpoint's file states, seal -> fold -> publish -> remove:
	{"sealed-header-unwritten", PhaseSealed},      // the fresh segment created, its header not written; plane lock held
	{"sealed-no-checkpoint-yet", PhaseSealed},     // sealed, the carrying grant acknowledged, the snapshot's temp file not created
	{"tmp-unwritten", PhaseTempCreated},           // the temp file created, nothing written to it
	{"tmp-write", phaseTempWritten},               // the temp file part written
	{"tmp-sync", phaseTempWritten},                // the temp file written, its sync not done
	{"synced-unrenamed", phaseTempSynced},         // the temp file synced and closed, not renamed into place
	{"rename-syncdir", phaseRenamed},              // the snapshot renamed into place, the directory not synced
	{"published-before-removals", phaseDirSynced}, // the snapshot durable, everything it covers still there
	{"removals-half-done", phaseCoveredRemoved},   // the old snapshot gone for good, the sealed segment still there
	{"promise-behind-sealed-tail", PhaseSealed},   // a grant in the open segment, its flush parked in the sealed segment's sync
	{"snapshot-during-sync-to", phaseTempWritten}, // a waiter in syncTo released by its own flush while a checkpoint's temp sync is parked
	// Two flushes in flight:
	{"second-flush-overtakes", untagged}, // the later flush's sync done, the earlier one's parked
	{"earlier-flush-fails", untagged},    // the earlier flush's sync failed, the later one's succeeded
	{"seal-under-flush", untagged},       // a seal swapped segments under a parked flush of the old one
}

// sealWithNextRecord makes the next record written carry a seal, as the
// SnapshotEvery-th since the last one does.
func (r *rig) sealWithNextRecord() {
	r.p.store.recordsSinceSnap = r.p.store.opts.SnapshotEvery - 1
}

// killCheckpointAt takes the crash with a checkpoint standing at match (nil:
// before its first step, the creation of its temp file): a grant carries the
// seal and is acknowledged on its own flush — it waits for nothing the
// checkpoint does — the checkpoint's goroutine is parked at match, settle (if
// set) does what the test wants done to the disk while it stands there, and
// the process is killed.  Whatever files the crash finds, recovery is the
// plane at the grant's LSN, with the grant.
func killCheckpointAt(t *testing.T, hit func(*rig), what string, match func(gateEvent) bool, settle func(r *rig)) {
	r := newRig(t, StoreOptions{})
	base := r.written()
	// The checkpoint is held at its first step until the grant is back, so
	// that every later call match sees is the checkpoint's own.
	pk := r.gate.parkAt(firstOf(PhaseTempCreated, false))
	r.sealWithNextRecord()
	job := r.grantable()
	if v := r.negotiate(job); v.err != nil {
		t.Fatalf("the grant that carries the seal: %v", v.err)
	}
	if got := r.p.DurableLSN(); got != base+1 {
		t.Fatalf("grant acknowledged at lsn %d with the log durable to %d", base+1, got)
	}
	r.reached(pk, "the creation of the checkpoint's temp file")
	if match != nil {
		first := pk
		pk = r.gate.parkAt(match)
		first.release()
		r.reached(pk, what)
	}
	if r.planeLockHeld() {
		t.Fatalf("the plane lock is held while the checkpoint stands at %s", what)
	}
	if settle != nil {
		settle(r)
	}
	hit(r)
	r.kill()
	pk.release()
	if st := r.recover(); st.LSN != base+1 || !hasGrant(st, job.ID) {
		t.Fatalf("killed at %s: recovered lsn %d (grant there: %t), want the acknowledged grant's %d", what, st.LSN, hasGrant(st, job.ID), base+1)
	}
}

// crashPositions drives the plane to each position, takes the crash there and
// checks what is recovered.  Each scenario calls hit with its rig once it has
// verified, from the outside, that the plane stands where the name says.
var crashPositions = map[string]func(t *testing.T, hit func(*rig)){
	"written-unlocked": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		pk := r.gate.parkAt(admitWrite(true))
		job := r.grantable()
		a := r.start(job)
		r.reached(pk, "the grant's write")
		if !r.planeLockHeld() {
			t.Fatal("the plane lock is free while the record is being written: log order is not decision order")
		}
		hit(r)
		r.kill()
		pk.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged by a process killed before it flushed")
		}
		if st := r.recover(); st.LSN != base || hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want %d without it", st.LSN, hasGrant(st, job.ID), base)
		}
	},
	"unlocked-flush": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		pk := r.gate.parkAt(segmentSync(false))
		job := r.grantable()
		a := r.startWritten(job)
		r.reached(pk, "the grant's flush")
		if r.planeLockHeld() {
			t.Fatal("the plane lock is held across the flush")
		}
		if r.written() != base+1 || r.p.DurableLSN() != base {
			t.Fatalf("written %d durable %d, want %d and %d", r.written(), r.p.DurableLSN(), base+1, base)
		}
		r.pending(a, "the grant")
		hit(r)
		r.kill()
		pk.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged by a process killed before it flushed")
		}
		if st := r.recover(); st.LSN != base || hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want %d without it", st.LSN, hasGrant(st, job.ID), base)
		}
	},
	"mid-flush-second-grant": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		flushA := r.gate.parkAt(segmentSync(false))
		jobA, jobB := r.grantable(), r.grantable()
		a := r.startWritten(jobA)
		r.reached(flushA, "the first grant's flush")
		flushB := r.gate.parkAt(segmentSync(false))
		b := r.startWritten(jobB) // written behind a flush that has started
		flushA.release()
		if v := r.result(a, "the first grant"); v.err != nil {
			t.Fatal(v.err)
		}
		r.reached(flushB, "the second grant's own flush")
		// A flush answers for what was written before it started, no more:
		// the second grant is not released by the first one's.
		if got := r.p.DurableLSN(); got != base+1 {
			t.Fatalf("durable to %d after the first grant's flush, want %d", got, base+1)
		}
		r.pending(b, "the second grant")
		hit(r)
		r.kill()
		flushB.release()
		if v := r.result(b, "the second grant"); v.err == nil {
			t.Fatal("second grant acknowledged by a process killed before its flush")
		}
		st := r.recover()
		if st.LSN < base+1 || !hasGrant(st, jobA.ID) {
			t.Fatalf("recovered lsn %d without acknowledged grant %d (lsn %d)", st.LSN, jobA.ID, base+1)
		}
	},
	"flush-ack": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		pk := r.gate.parkAt(segmentSync(true))
		job := r.grantable()
		a := r.startWritten(job)
		r.reached(pk, "the end of the grant's flush")
		r.pending(a, "the grant")
		hit(r)
		r.kill()
		pk.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged by a dead process")
		}
		// Durable and never acknowledged: the one direction the contract
		// leaves open.
		if st := r.recover(); st.LSN != base+1 || !hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want the flushed record %d", st.LSN, hasGrant(st, job.ID), base+1)
		}
	},
	"refusal-ahead-of-flush": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base, flushes := r.written(), r.gate.segSyncs.Load()
		pk := r.gate.parkAt(segmentSync(false))
		job := r.grantable()
		a := r.startWritten(job)
		r.reached(pk, "the grant's flush")
		// The first caller stands in its flush.  A second caller's refusal,
		// clock report and completion go through meanwhile.
		refusal := r.refusable()
		if v := r.result(r.start(refusal), "the refusal behind a parked flush"); !errors.Is(v.err, qos.ErrRejected) {
			t.Fatalf("refusal: %v", v.err)
		}
		r.wrote(func(q *Plane) { q.Negotiate(refusal) })
		r.p.Observe(3)
		r.wrote(func(q *Plane) { q.Observe(3) })
		if r.written() != base+3 || r.p.DurableLSN() != base || r.gate.segSyncs.Load() != flushes {
			t.Fatalf("written %d durable %d after %d more flushes, want %d, %d and none",
				r.written(), r.p.DurableLSN(), r.gate.segSyncs.Load()-flushes, base+3, base)
		}
		r.pending(a, "the grant")
		hit(r)
		r.kill()
		pk.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged by a process killed before it flushed")
		}
		// The refusal was acknowledged and is gone, with the grant ahead of
		// it that nobody was told of: the plane that comes back promised
		// nothing it cannot keep.
		if st := r.recover(); st.LSN != base || hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want %d without it", st.LSN, hasGrant(st, job.ID), base)
		}
	},
	"sealed-header-unwritten": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		pk := r.gate.parkAt(headerWrite(false))
		r.sealWithNextRecord()
		job := r.grantable()
		a := r.start(job)
		r.reached(pk, "the fresh segment's header")
		if !r.planeLockHeld() {
			t.Fatal("the segment is being swapped with the plane lock free: a record could be written to either")
		}
		if r.written() != base+1 {
			t.Fatalf("%d records written at the seal, want the carrying grant's alone", r.written()-base)
		}
		hit(r)
		r.kill()
		pk.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged by a process killed before it flushed")
		}
		if st := r.recover(); st.LSN != base || hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want %d without it", st.LSN, hasGrant(st, job.ID), base)
		}
	},
	"sealed-no-checkpoint-yet": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "the creation of its temp file", nil, nil)
	},
	"tmp-unwritten": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "its temp file's first write", firstOf(phaseTempWritten, false), nil)
	},
	"tmp-write": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "the end of its temp file's first write", firstOf(phaseTempWritten, true), nil)
	},
	"tmp-sync": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "its temp file's sync", firstOf(phaseTempSynced, false), nil)
	},
	"synced-unrenamed": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "its rename", firstOf(phaseRenamed, false), nil)
	},
	"rename-syncdir": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "the directory sync after the rename", firstOf(phaseDirSynced, false), nil)
	},
	"published-before-removals": func(t *testing.T, hit func(*rig)) {
		killCheckpointAt(t, hit, "its first removal", firstOf(phaseCoveredRemoved, false), func(r *rig) {
			if got := r.p.DurableLSN(); got != r.written() {
				t.Fatalf("snapshot published at lsn %d, log durable to %d", r.written(), got)
			}
		})
	},
	"removals-half-done": func(t *testing.T, hit func(*rig)) {
		removed := 0
		killCheckpointAt(t, hit, "its second removal", func(ev gateEvent) bool {
			if ev.call == CallRemove && !ev.after {
				removed++
			}
			return removed == 2 && ev.call == CallRemove && !ev.after
		}, func(r *rig) {
			// The directory may reach the disk whenever the system likes: the
			// first removal is made to last, the second never happens.
			if err := r.fault.SyncDir("log"); err != nil {
				t.Fatal(err)
			}
		})
	},
	"promise-behind-sealed-tail": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base, sealed := r.written(), r.p.store.segName
		// The checkpoint is held at its first step, so that nothing it would
		// publish covers for the flush under test.
		tmp := r.gate.parkAt(firstOf(PhaseTempCreated, false))
		r.sealWithNextRecord()
		if v := r.negotiate(r.refusable()); !errors.Is(v.err, qos.ErrRejected) {
			t.Fatalf("the refusal that carries the seal: %v", v.err)
		}
		r.reached(tmp, "the creation of the checkpoint's temp file")
		if r.p.store.segName == sealed || r.p.DurableLSN() != base {
			t.Fatalf("open segment %s, durable to %d: want a fresh segment over an unflushed tail at %d", r.p.store.segName, r.p.DurableLSN(), base)
		}
		// A grant goes into the open segment; its flush has the sealed
		// segment's tail to see to first, and stands there.
		tail := r.gate.parkAt(func(ev gateEvent) bool { return ev.call == CallSync && !ev.after && ev.name == sealed })
		job := r.grantable()
		a := r.startWritten(job)
		r.reached(tail, "the sealed tail's sync")
		r.pending(a, "the grant")
		if got := r.p.DurableLSN(); got != base {
			t.Fatalf("durable to %d with the sealed tail unflushed, want %d", got, base)
		}
		hit(r)
		r.kill()
		tail.release()
		tmp.release()
		if v := r.result(a, "the grant"); v.err == nil {
			t.Fatal("grant acknowledged with the records before it not on the disk")
		}
		// Neither the grant nor a gap: the log ends where the last flush did.
		if st := r.recover(); st.LSN != base || hasGrant(st, job.ID) {
			t.Fatalf("recovered lsn %d (grant there: %t), want %d without it", st.LSN, hasGrant(st, job.ID), base)
		}
	},
	"snapshot-during-sync-to": func(t *testing.T, hit func(*rig)) {
		for _, crash := range []bool{true, false} {
			r := newRig(t, StoreOptions{})
			base := r.written()
			if v := r.negotiate(r.refusable()); !errors.Is(v.err, qos.ErrRejected) {
				t.Fatal(v.err)
			}
			pk := r.gate.parkAt(firstOf(phaseTempSynced, false))
			snap := make(chan error, 1)
			go func() { snap <- r.p.Snapshot() }()
			r.reached(pk, "the checkpoint's temp sync")
			// A caller asks for the riding refusal to be made durable while
			// the checkpoint stands in its sync: its own flush — the sealed
			// tail, the open segment, the directory — releases it.
			flushes := r.gate.segSyncs.Load()
			waiter := make(chan error, 1)
			go func() { waiter <- r.p.store.syncTo(base + 1) }()
			select {
			case err := <-waiter:
				if err != nil {
					t.Fatalf("SyncTo: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("SyncTo waits for a checkpoint in progress")
			}
			if got := r.p.DurableLSN(); got != base+1 {
				t.Fatalf("durable to %d after the waiter's flush, want %d", got, base+1)
			}
			if got := r.gate.segSyncs.Load() - flushes; got != 2 {
				t.Fatalf("%d journal syncs in the waiter's flush, want the sealed segment's and the open one's", got)
			}
			if crash {
				hit(r)
				r.kill()
			}
			pk.release()
			serr := <-snap
			if crash {
				if serr == nil {
					t.Fatal("snapshot taken by a killed process")
				}
				if st := r.recover(); st.LSN != base+1 {
					t.Fatalf("recovered lsn %d with the snapshot half written, want the flushed %d", st.LSN, base+1)
				}
				continue
			}
			if serr != nil {
				t.Fatalf("snapshot: %v", serr)
			}
			if names, _ := r.fault.ReadDir("log"); !slices.Equal(names, []string{snapName(base + 1), segName(base + 2)}) {
				t.Fatalf("after the checkpoint the directory holds %v", names)
			}
			r.kill()
			if st := r.recover(); st.LSN != base+1 {
				t.Fatalf("recovered lsn %d from the snapshot, want %d", st.LSN, base+1)
			}
		}
	},
	"second-flush-overtakes": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base, syncs := r.written(), r.gate.segSyncs.Load()
		earlier := r.gate.parkAt(segmentSync(false))
		jobA, jobB := r.grantable(), r.grantable()
		a := r.startWritten(jobA)
		r.reached(earlier, "the first grant's flush")
		// The second grant leads a flush of its own, whose sync covers both
		// records and finishes first.
		b := r.startWritten(jobB)
		r.await(func() bool { return r.gate.segSyncs.Load() > syncs }, "the second grant's sync")
		// It publishes after the flush that started before it, not before.
		if got := r.p.DurableLSN(); got != base {
			t.Fatalf("durable to %d with the earlier flush parked, want %d", got, base)
		}
		r.pending(b, "the second grant")
		r.pending(a, "the first grant")
		hit(r)
		r.kill()
		earlier.release()
		for _, ch := range []<-chan verdict{a, b} {
			if v := r.result(ch, "a grant"); v.err == nil {
				t.Fatal("grant acknowledged by a process killed with the earlier flush unfinished")
			}
		}
		// Both records reached the disk with the later sync and neither was
		// acknowledged: the one direction the contract leaves open.
		if st := r.recover(); st.LSN != base+2 || !hasGrant(st, jobA.ID) || !hasGrant(st, jobB.ID) {
			t.Fatalf("recovered lsn %d, want both synced grants at %d", st.LSN, base+2)
		}
	},
	"earlier-flush-fails": func(t *testing.T, hit func(*rig)) {
		r := newRig(t, StoreOptions{})
		base := r.written()
		boom := errors.New("fsync failed")
		earlier := r.gate.parkAt(segmentSync(false))
		a := r.startWritten(r.grantable())
		r.reached(earlier, "the first grant's flush")
		// The first flush's sync fails, and it stands on its way back; the
		// second flush's sync succeeds.
		failed := r.gate.parkAt(segmentSync(true))
		r.fault.SetSyncError(boom, 0)
		earlier.release()
		r.reached(failed, "the end of the first grant's failed sync")
		r.fault.SetSyncError(nil, 0)
		syncs := r.gate.segSyncs.Load()
		b := r.startWritten(r.grantable())
		r.await(func() bool { return r.gate.segSyncs.Load() > syncs }, "the second grant's sync")
		r.pending(b, "the second grant")
		r.pending(a, "the first grant")
		hit(r)
		failed.release()
		// An fsync error is reported once: the later sync's success does not
		// say the records before it survived, so its caller fails too.
		for i, ch := range []<-chan verdict{a, b} {
			if v := r.result(ch, "a grant"); !errors.Is(v.err, boom) {
				t.Fatalf("grant %d: %v, want the first flush's error", i+1, v.err)
			}
		}
		if err := r.p.Err(); !errors.Is(err, boom) {
			t.Fatalf("plane error %v, want the failed flush's", err)
		}
		if got := r.p.DurableLSN(); got != base {
			t.Fatalf("durable to %d after a failed flush, want %d", got, base)
		}
		r.kill()
		r.recover()
	},
	"seal-under-flush": func(t *testing.T, hit func(*rig)) {
		// The sealed handle goes with the next flush to start or, if none
		// starts first, with the checkpoint; either way it is closed once, and
		// not before the flush still syncing it as the open segment has
		// published.
		for _, byFlush := range []bool{true, false} {
			r := newRig(t, StoreOptions{})
			base, old := r.written(), r.p.store.segName
			var closes, dirSyncs atomic.Int64
			r.gate.watch = func(ev gateEvent) {
				switch {
				case !ev.after:
				case ev.call == CallClose && ev.name == old:
					closes.Add(1)
				case ev.call == CallSyncDir:
					dirSyncs.Add(1)
				}
			}
			// The checkpoint is held at its first step, so that nothing it
			// does covers for the flushes under test.
			tmp := r.gate.parkAt(firstOf(PhaseTempCreated, false))
			earlier := r.gate.parkAt(segmentSync(false))
			jobA := r.grantable()
			a := r.startWritten(jobA)
			r.reached(earlier, "the first grant's flush")
			// A refusal carries a seal, which swaps the segment under the flush.
			r.sealWithNextRecord()
			if v := r.negotiate(r.refusable()); !errors.Is(v.err, qos.ErrRejected) {
				t.Fatalf("the refusal that carries the seal: %v", v.err)
			}
			r.reached(tmp, "the creation of the checkpoint's temp file")
			if r.p.store.segName == old {
				t.Fatal("the seal left the open segment in place")
			}
			grants, jobs, want := []<-chan verdict{a}, []int{jobA.ID}, base+2
			if byFlush {
				// The next flush has the sealed tail, the open segment and the
				// directory to see to.
				syncs, dirs := r.gate.segSyncs.Load(), dirSyncs.Load()
				jobB := r.grantable()
				b := r.startWritten(jobB)
				r.await(func() bool { return r.gate.segSyncs.Load() == syncs+2 && dirSyncs.Load() == dirs+1 },
					"the second flush's syncs of the sealed segment, the open one and the directory")
				if got := r.p.DurableLSN(); got != base {
					t.Fatalf("durable to %d with the earlier flush parked, want %d", got, base)
				}
				r.pending(b, "the second grant")
				grants, jobs, want = append(grants, b), append(jobs, jobB.ID), base+3
			} else {
				// The checkpoint publishes, which covers the parked flush's
				// grant, and comes to the sealed handle; the sleep gives one
				// that does not wait for the parked flush the time to close it.
				tmp.release()
				r.await(func() bool { return r.p.DurableLSN() == base+2 }, "the snapshot's publication")
				time.Sleep(10 * time.Millisecond)
			}
			r.pending(a, "the first grant")
			if closes.Load() != 0 {
				t.Fatal("the sealed segment was closed under the flush still syncing it")
			}
			hit(r)
			earlier.release()
			for i, ch := range grants {
				if v := r.result(ch, "a grant"); v.err != nil {
					t.Fatalf("grant %d: %v", i+1, v.err)
				}
			}
			if byFlush {
				if got := r.p.DurableLSN(); got != want {
					t.Fatalf("durable to %d, want %d", got, want)
				}
				tmp.release()
			}
			if err := r.p.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if got := closes.Load(); got != 1 {
				t.Fatalf("the sealed segment was closed %d times, want once", got)
			}
			r.kill()
			st := r.recover()
			if st.LSN != want || !hasGrant(st, jobs[0]) || !hasGrant(st, jobs[len(jobs)-1]) {
				t.Fatalf("recovered lsn %d, want grants %v at %d", st.LSN, jobs, want)
			}
		}
	},
}

func TestCrashPositions(t *testing.T) {
	for _, pos := range crashPositionNames {
		if run, ok := crashPositions[pos.name]; ok {
			t.Run(pos.name, func(t *testing.T) { run(t, func(*rig) {}) })
		}
	}
}

// The strict sweep: every name reached, every checkpoint position crashed in
// the phase it is tagged with, and every phase a checkpoint can stand in
// crashed by some position.
func TestCrashPositionSweep(t *testing.T) {
	tags := map[string]Phase{}
	for _, pos := range crashPositionNames {
		tags[pos.name] = pos.phase
	}
	hits := map[string]int{}
	crashed := map[Phase]bool{}
	for name, run := range crashPositions {
		run(t, func(r *rig) {
			hits[name]++
			if tag, ok := tags[name]; !ok || tag == untagged {
				return
			} else if at := r.gate.standing(); at != tag {
				t.Errorf("%q is tagged %s, and its crash finds the checkpoint in %s", name, tag, at)
			} else {
				crashed[at] = true
			}
		})
	}
	for _, pos := range crashPositionNames {
		if hits[pos.name] == 0 {
			t.Errorf("no scenario took a crash at %q", pos.name)
		}
	}
	if len(crashPositions) != len(crashPositionNames) {
		t.Errorf("%d scenarios for %d named positions", len(crashPositions), len(crashPositionNames))
	}
	for ph := PhaseSealed; ph < PhaseOver; ph++ {
		if !crashed[ph] {
			t.Errorf("no position crashes a checkpoint standing in %s", ph)
		}
	}
}

// Four callers, every kind of call, and a disk whose flushes start failing:
// no grant comes back without its flush, the failure reaches every waiter and
// every later caller, and Err does not change its mind.  Run under -race,
// which is also what holds the store's poison, written and durable marks to
// being atomics: they are read here with neither lock held.
func TestConcurrentCallersAndAFailingDisk(t *testing.T) {
	boom := errors.New("flush failed")
	ft := vfs.NewFault(vfs.NewMem())
	var admitLSN sync.Map // job ID -> LSN of its admit record
	gate := &gateFS{FS: ft, watch: func(ev gateEvent) {
		if rec, ok := ev.record(); ok && ev.after && rec.Kind == KindAdmit {
			admitLSN.Store(rec.JobID, rec.LSN)
		}
	}}
	p, _, err := OpenPlane(Config{FS: gate, Dir: "log", Procs: 16,
		Store: StoreOptions{SnapshotEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	ft.SetSyncError(boom, 120)

	const callers, perCaller = 4, 400
	jobs := planeStream(callers*perCaller, 43)
	var (
		wg       sync.WaitGroup
		granted  atomic.Int64
		poisoned atomic.Int64 // calls made after Err was seen non-nil
		firstErr atomic.Pointer[error]
	)
	fail := make(chan string, callers+1)
	// A reader that takes no lock at all, ever: whatever it reads must be
	// safe to read that way.
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		var down error
		var durable uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Err(); down != nil && err != down {
				fail <- fmt.Sprintf("Err changed from %v to %v", down, err)
				return
			} else if err != nil {
				down = err
			}
			if d := p.DurableLSN(); d < durable {
				fail <- fmt.Sprintf("DurableLSN went back from %d to %d", durable, d)
				return
			} else {
				durable = d
			}
		}
	}()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			report := func(format string, args ...any) {
				select {
				case fail <- fmt.Sprintf(format, args...):
				default:
				}
			}
			var mine []int
			for i := 0; i < perCaller; i++ {
				job := jobs[c*perCaller+i]
				down := p.Err()
				if down != nil {
					poisoned.Add(1)
					if first := firstErr.Load(); first == nil {
						firstErr.CompareAndSwap(nil, &down)
					} else if *first != down {
						report("Err changed from %v to %v", *first, down)
					}
				}
				p.Observe(job.Release)
				g, err := p.Negotiate(job)
				switch {
				case err == nil:
					granted.Add(1)
					mine = append(mine, g.JobID)
					lsn, ok := admitLSN.Load(g.JobID)
					if !ok || p.DurableLSN() < lsn.(uint64) {
						report("job %d granted with its record (lsn %v) beyond the durable %d", g.JobID, lsn, p.DurableLSN())
					}
					if down != nil {
						report("job %d granted by a plane already poisoned", g.JobID)
					}
				case errors.Is(err, qos.ErrRejected):
					if down != nil {
						report("job %d refused, not failed, by a plane already poisoned", job.ID)
					}
				case !errors.Is(err, boom):
					report("job %d: %v", job.ID, err)
				}
				switch i % 8 {
				case 3:
					if len(mine) > 0 {
						if err := p.JobCompleted(mine[0], job.Release); err != nil && !errors.Is(err, boom) {
							report("complete %d: %v", mine[0], err)
						} else if err == nil && down != nil {
							report("completion of %d accepted by a plane already poisoned", mine[0])
						}
						mine = mine[1:]
					}
				case 7:
					if err := p.Snapshot(); err != nil && !errors.Is(err, boom) {
						report("snapshot: %v", err)
					} else if err == nil && down != nil {
						report("snapshot taken by a poisoned plane")
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-watched
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if granted.Load() == 0 || poisoned.Load() == 0 {
		t.Fatalf("%d grants, %d calls after the failure: the run must see both sides of it", granted.Load(), poisoned.Load())
	}
	if err := p.Err(); !errors.Is(err, boom) || err != *firstErr.Load() {
		t.Fatalf("Err() = %v at the end, first seen as %v", err, *firstErr.Load())
	}
}
