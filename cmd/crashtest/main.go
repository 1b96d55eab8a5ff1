// Command crashtest is the durable admission plane's crash harness: it
// proves acked ⇒ durable where the ack is received.  Every mode serves the
// plane on loopback the way junctiond does (qosnet over durable.Plane) and
// sends negotiations and clock reports through qosnet clients; an
// acknowledged grant is one a client decoded.  Capacity grows are direct
// plane calls, the operator's path: the wire has no capacity op.  After a
// crash one oracle, durable.State.Lost, names every acknowledged grant the
// recovered state owes and does not hold.
//
// In -mode vfs (the default) it drives a seed-deterministic admission
// storm — interleaved with single-processor capacity grows, so
// KindCapacity records sit between decisions — against a plane on the
// fault-injecting in-memory filesystem and crashes it mid-storm, cycling
// through fault phases:
//
//	sync-always    honest disk, fsync per record: a crash may lose nothing
//	unsynced-loss  group commit (sync every 4): the unsynced tail may die
//	write-error    injected write failure poisons the plane mid-storm
//	sync-lie       fsync reports success but persists nothing
//	syncdir-lie    directory fsync lies across a snapshot compaction
//
// The harness reads the order decisions were made in off the journal
// itself: a tap between the plane and the fault filesystem decodes every
// record as it is written, so record LSN k is the k-th decision whoever
// made it.  After every crash the differential oracle re-drives the first
// m of them (m = recovered LSN) through a fresh, never-crashed plane,
// served and driven the same way, and requires the recovered state to be
// bitwise-identical — profiles, stats, grants, clock.  A lost grant whose
// admit record lies within the recovered prefix is a recovery bug; one
// past it is a loss, which the sync-always phase forbids (refusals and
// clock reports are acknowledged once written and may go with the
// unflushed tail), and the two lie phases must each provably LOSE at least
// one acknowledged grant across the run: a lying disk that the oracle
// cannot convict means the oracle is blind, and the run fails.
//
// The plane checkpoints on a goroutine of its own.  From one caller the tap
// holds that goroutine's filesystem calls at a gate and lets them through
// between the caller's ops a checkpoint phase at a time, as many phases as
// the seed says — none, one, two, the rest — so where a crash finds the
// checkpoint is the seed's choice too, however many calls a phase makes, and
// the run stays a pure function of it.  The crashes sweep the phases: each
// aims at one, and the ok line counts the crashes that found each.  Outside
// the lie phases a recovery must also reach the LSN the plane held durable
// when it died.
//
// With -callers N > 1 the storm is driven over N connections drawing ops
// from one queue, and most crashes are taken mid-flight: the tap kills the
// process at a seed-chosen journal write or flush — before it reaches the
// disk or just after — with the other callers wherever they stand: holding
// the plane lock, waiting for a flush, or acknowledged on a record that is
// not flushed.  Such a run covers the interleavings, not one schedule: its
// seed fixes the ops and the kill points, the Go scheduler the rest.
//
// In -mode sigkill the same storm runs in a child process (re-exec of
// this binary) against the real filesystem; the parent SIGKILLs the
// child mid-storm, recovers the directory, and requires every grant the
// child acknowledged on stdout — with its finish, bit for bit — to
// survive replay or to have run out.
//
// In -mode soak one log lineage under SyncAlways lives through -iters
// crash/recover cycles of -ops ops each; a cycle runs on until its last
// record is a promise, so the crash finds nothing riding on a later flush,
// and every recovery must equal the state exported just before the crash
// and lose no acknowledged grant.
//
// Every run is a pure function of -seed, but for the interleavings of
// -callers N; the chosen seed is always printed, and any divergence is
// written to -artifact for CI upload.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// op is one unit of driven work.  Driven by one caller in stream order,
// every op appends exactly one WAL record (observe -> KindObserve,
// negotiate -> KindAdmit or KindReject, grow -> KindCapacity), so op index
// i commits as LSN i+1 and a recovered LSN m means ops[0:m] are the
// committed prefix; the sigkill mode rests on that.  Capacity ops are
// grow-only: a single-processor grow is exactly one shard resize (one
// record) and can never fail, which keeps the mapping 1:1; shrinks may
// stop early on committed reservations and are exercised in the durable
// package's own tests instead.  Driven by several callers an op may also
// write nothing — a clock report overtaken by a later one, a grow that
// raced another to the same total — and the journal tap, not the stream,
// says what was decided in which order.
type op struct {
	observe bool
	grow    bool
	now     float64
	job     core.Job
}

// genOps builds the deterministic op stream for a seed: a pure function
// of (n, seed), and genOps(m, seed) is a prefix of genOps(n, seed) for
// m < n.
func genOps(n int, seed int64) []op {
	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	arr := workload.NewPoisson(6, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := make([]op, 0, n)
	now := 0.0
	id := 0
	for len(ops) < n {
		now += arr.Next()
		ops = append(ops, op{observe: true, now: now})
		if len(ops) < n && rng.Intn(12) == 0 {
			ops = append(ops, op{grow: true, now: now})
		}
		for k := rng.Intn(2); k >= 0 && len(ops) < n; k-- {
			ops = append(ops, op{now: now, job: tmpl.Job(id, now, workload.Tunable)})
			id++
		}
	}
	return ops
}

// growsIn counts capacity ops in the committed prefix ops[0:m]: the
// recovered plane's total capacity must be the seed capacity plus
// exactly this count.
func growsIn(ops []op, m int) int {
	n := 0
	for _, o := range ops[:m] {
		if o.grow {
			n++
		}
	}
	return n
}

// procs is the machine every plane of the harness starts from.
const procs = 16

// plane is a durable plane served on loopback as junctiond serves it, and
// the connections its callers drive it through.
type plane struct {
	*durable.Plane
	srv   *qosnet.Server
	conns []*qosnet.Client
}

// openPlane recovers (or creates) the plane in dir, serves it on loopback
// and dials callers connections to it.
func openPlane(fs vfs.FS, dir string, store durable.StoreOptions, callers int) (*plane, durable.Recovered, error) {
	dp, rec, err := durable.OpenPlane(durable.Config{FS: fs, Dir: dir, Procs: procs, Store: store})
	if err != nil {
		return nil, rec, err
	}
	srv, err := qosnet.ListenAndServe(dp, "127.0.0.1:0")
	if err != nil {
		dp.Close()
		return nil, rec, err
	}
	p := &plane{Plane: dp, srv: srv}
	for len(p.conns) < max(callers, 1) {
		c, err := qosnet.Dial(srv.Addr().String())
		if err != nil {
			p.hangUp()
			dp.Close()
			return nil, rec, err
		}
		p.conns = append(p.conns, c)
	}
	return p, rec, nil
}

// hangUp closes the connections and stops serving.  The plane is left as
// it stands, for a crash to take or Close to flush.
func (p *plane) hangUp() {
	for _, c := range p.conns {
		c.Close()
	}
	p.srv.Close()
}

// applyOp makes one op's call: a negotiation or a clock report over the
// connection c, a grow on the plane.  onAck, if set, hears of every grant
// c decoded.  Rejections are normal; any other error (poisoned store,
// injected fault, killed process) is returned.
func applyOp(p *plane, c *qosnet.Client, o op, onAck func(id int, finish float64)) error {
	switch {
	case o.observe:
		if err := c.Observe(o.now); err != nil {
			return err
		}
		return p.Err()
	case o.grow:
		want := p.Procs() + 1
		got, err := p.SetTotalCapacity(want)
		// got > want is other callers' grows overtaking the total this one
		// read: it became a shrink nobody asked for, and refused it wrote
		// nothing, like one that raced to the same total.  From one caller
		// it cannot happen and every error is the run's.
		if err != nil && got <= want {
			return err
		}
		return p.Err()
	}
	g, err := c.Negotiate(o.job)
	switch {
	case err == nil:
		if onAck != nil {
			onAck(o.job.ID, g.Finish())
		}
	case errors.Is(err, qos.ErrRejected):
	default:
		return err
	}
	return nil
}

// driveOps pushes ops[from:until] through the plane's first connection in
// stream order and stops at the first error, returning the index reached.
func driveOps(p *plane, ops []op, from, until int, onAck func(id int, finish float64)) (int, error) {
	for i := from; i < until; i++ {
		if err := applyOp(p, p.conns[0], ops[i], onAck); err != nil {
			return i, err
		}
	}
	return until, nil
}

// driveBatch pushes the ops at the given indices through the plane: in
// order over one connection, calling between (if set) after each and
// stopping where it says so, or drawn from one queue by a caller per
// connection, each of which stops at its first error.  It returns the first
// error any caller met.
func driveBatch(p *plane, ops []op, batch []int, onAck func(id int, finish float64), between func() (goOn bool)) error {
	if len(p.conns) == 1 {
		for _, i := range batch {
			if err := applyOp(p, p.conns[0], ops[i], onAck); err != nil {
				return err
			}
			if between != nil && !between() {
				return nil
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex // onAck and first
		first error
	)
	ack := func(id int, finish float64) {
		mu.Lock()
		onAck(id, finish)
		mu.Unlock()
	}
	for _, c := range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; int(k) < len(batch); k = next.Add(1) - 1 {
				if err := applyOp(p, c, ops[batch[k]], ack); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// errKilled is what the filesystem answers a process that is dead.
var errKilled = errors.New("crashtest: process killed")

// ckPhase is how far a checkpoint has got, named from the filesystem calls
// the tap sees its goroutine make: each phase is the state the checkpoint
// stands in once that phase's calls are through, however many calls a phase
// takes.  The trailing directory sync, which makes the removals durable,
// ends the checkpoint.
type ckPhase int

const (
	phSealed      ckPhase = iota // a segment header written: the goroutine is on its way to the temp file
	phTempCreated                // the snapshot's temp file created
	phTempWritten                // its bytes written
	phTempSynced                 // synced and closed
	phRenamed                    // renamed into place
	phDirSynced                  // the rename made durable
	phRemoved                    // the sealed segment closed, what the snapshot covers removed
	phOver                       // the removals made durable: the checkpoint is over
)

var phaseNames = [phOver]string{"sealed", "temp-created", "temp-written", "temp-synced", "renamed", "dir-synced", "covered-removed"}

// journalTap sits between the plane and the fault filesystem.  It decodes
// every record the plane writes to a journal segment, which is how the
// harness knows the order decisions were made in without asking the plane;
// it can kill the process at a chosen journal write or flush: from then on
// every filesystem call fails and nothing reaches the disk, so that the
// crash that follows is taken exactly there; it can fail every write once a
// count of journal writes has gone by; and in lockstep it holds the
// checkpoint goroutine's calls until the driver lets them through, a
// checkpoint phase at a time.
type journalTap struct {
	vfs.FS

	mu   sync.Mutex
	recs []durable.Record // recs[k-1] is the record written with LSN k
	// fuse counts down the journal writes and flushes left until the kill
	// (0: none armed); effect says whether the fatal one reaches the disk.
	fuse   int
	effect bool
	dead   bool
	// writeErr, once writeLeft journal writes have gone by, fails every
	// write; only the journal's count, so that how many writes a snapshot
	// takes moves nothing.
	writeErr  error
	writeLeft int

	// Lockstep, one caller's drive.  While the caller is inside an op every
	// call is its own, but for the creation of a snapshot's temp file: the
	// checkpoint goroutine's first, where it is held.  Between ops (pacing)
	// every call is that goroutine's, held in turn.  sealed says a seal went
	// by whose checkpoint is not known to be over; over is closed when it is.
	// at is the phase of the last call let through; next, while a call is
	// held, the phase that call belongs to.
	lockstep, pacing, sealed bool
	at, next                 ckPhase
	over                     chan struct{}
	parked                   chan struct{} // closed to let the held call through
	arrived                  chan struct{} // a call has just been held
}

func newJournalTap(fs vfs.FS) *journalTap {
	return &journalTap{FS: fs, arrived: make(chan struct{}, 1)}
}

// arm sets the kill fuse events journal calls ahead.
func (t *journalTap) arm(events int, effect bool) {
	t.mu.Lock()
	t.fuse, t.effect = events, effect
	t.mu.Unlock()
}

// failWrites lets after more journal writes through and fails every write
// from then on with err, until reboot.
func (t *journalTap) failWrites(err error, after int) {
	t.mu.Lock()
	t.writeErr, t.writeLeft = err, after
	t.mu.Unlock()
}

// injected is the armed write error, if the writes it lets through are
// spent; a journal write it lets through counts.
func (t *journalTap) injected(journal bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.writeErr == nil:
	case t.writeLeft <= 0:
		return t.writeErr
	case journal:
		t.writeLeft--
	}
	return nil
}

func (t *journalTap) killed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

// journal returns the records written so far, in LSN order.
func (t *journalTap) journal() []durable.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs
}

// reap is the death of the process wherever it stands: nothing reaches the
// disk from here on, a held call is let go to find that out, and the
// plane's checkpoint goroutine, which dies of its next filesystem call, is
// waited out.
func (t *journalTap) reap(p *durable.Plane) {
	t.mu.Lock()
	t.dead = true
	if t.parked != nil {
		close(t.parked)
		t.parked = nil
	}
	t.mu.Unlock()
	_ = p.WaitCheckpoint() // killed or finished, it is over
}

// reboot is the restart after a crash: the disk answers again.
func (t *journalTap) reboot() {
	t.mu.Lock()
	t.fuse, t.dead, t.lockstep, t.pacing, t.sealed, t.over = 0, false, false, false, false, nil
	t.writeErr, t.writeLeft = nil, 0
	t.mu.Unlock()
}

// checkpointing reports whether a paced checkpoint is under way, and if so
// the phase it stands in: every phase before that of the call it is held
// at is through.
func (t *journalTap) checkpointing() (ckPhase, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.parked != nil {
		return t.next - 1, t.sealed
	}
	return t.at, t.sealed
}

// enterLockstep starts the holding of the checkpoint's calls, until reboot.
func (t *journalTap) enterLockstep() {
	t.mu.Lock()
	t.lockstep = true
	t.mu.Unlock()
}

// hold is where a call waits when it is the checkpoint goroutine's: any call
// made while the driver paces, and the temp file's creation whenever made.
// ph is the phase the call belongs to if the checkpoint makes it; a
// directory sync is the rename's until the rename's has gone by, and the
// checkpoint's last call after that.
func (t *journalTap) hold(ph ckPhase) {
	t.mu.Lock()
	if !t.lockstep || t.dead || !(t.pacing || ph == phTempCreated) {
		t.mu.Unlock()
		return
	}
	if ph == phDirSynced && t.at >= phDirSynced {
		ph = phOver
	}
	gate := make(chan struct{})
	t.parked, t.next = gate, ph
	t.mu.Unlock()
	select {
	case t.arrived <- struct{}{}:
	default:
	}
	<-gate
}

// pace runs between two of the caller's ops: if a checkpoint is under way it
// is let through as many of its phases as rng says — none, one, two or all
// that are left — and the caller goes on once the checkpoint is held at the
// first call of the phase after those, or is over.  However many calls a
// phase takes, a crash finds the checkpoint where it found it before.
func (t *journalTap) pace(p *durable.Plane, rng *rand.Rand) {
	t.mu.Lock()
	if !t.sealed {
		t.mu.Unlock()
		return
	}
	if t.over == nil {
		over := make(chan struct{})
		t.over = over
		go func() {
			_ = p.WaitCheckpoint()
			close(over)
		}()
	}
	over := t.over
	t.pacing = true
	target := min(t.at+[...]ckPhase{0, 1, 2, phOver}[rng.Intn(4)], phOver)
	t.mu.Unlock()

	for {
		t.mu.Lock()
		gate := t.parked
		release := gate != nil && t.next <= target
		if release {
			t.parked, t.at = nil, t.next
		}
		t.mu.Unlock()
		switch {
		case gate == nil: // on its way to its next call, or over
			select {
			case <-t.arrived:
			case <-over:
				t.mu.Lock()
				t.pacing, t.sealed, t.over = false, false, nil
				t.mu.Unlock()
				return
			}
		case release:
			close(gate)
		default: // it stands at the next phase's first call, and stays there for now
			t.mu.Lock()
			t.pacing = false
			t.mu.Unlock()
			return
		}
	}
}

// cut forgets the records past the m a recovery found: they are gone, and
// their LSNs will be written again.
func (t *journalTap) cut(m int) {
	t.mu.Lock()
	t.recs = t.recs[:m]
	t.mu.Unlock()
}

// step is one write or flush about to go down: it reports whether the call
// reaches the disk and whether the process lives to see it return.  Only a
// journal's calls burn the fuse.
func (t *journalTap) step(journal bool) (reach, survive bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return false, false
	}
	if journal && t.fuse > 0 {
		if t.fuse--; t.fuse == 0 {
			t.dead = true
			return t.effect, false
		}
	}
	return true, true
}

// note decodes the record in a journal write.  A segment's header is not a
// frame and is skipped; written during a drive it is a seal's, and the
// checkpoint behind it has its calls paced from here on.
func (t *journalTap) note(p []byte) {
	if bytes.HasPrefix(p, []byte("MLNWAL")) {
		t.mu.Lock()
		t.sealed, t.at = t.lockstep, phSealed
		t.mu.Unlock()
		return
	}
	if len(p) < frame.HeaderLen {
		return
	}
	rec, err := durable.DecodeRecord(p[frame.HeaderLen:])
	if err != nil || rec.LSN == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.LSN > uint64(len(t.recs))+1 {
		return // cannot happen: LSNs are dense; the oracle will say so
	}
	t.recs = append(t.recs[:rec.LSN-1], rec)
}

func (t *journalTap) alive() error {
	if t.killed() {
		return errKilled
	}
	return nil
}

// open opens a file the tap watches: a journal segment, whose records it
// reads, or the snapshot's temp file, whose creation starts a checkpoint's
// calls.  Only the seal and recovery open anything else.
func (t *journalTap) open(name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	temp := strings.HasSuffix(name, ".tmp")
	if temp {
		t.hold(phTempCreated)
	} else {
		t.hold(phSealed)
	}
	if err := t.alive(); err != nil {
		return nil, err
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return tapFile{File: f, t: t, temp: temp, journal: strings.HasSuffix(name, ".log") && strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

func (t *journalTap) Create(name string) (vfs.File, error)     { return t.open(name, t.FS.Create) }
func (t *journalTap) OpenAppend(name string) (vfs.File, error) { return t.open(name, t.FS.OpenAppend) }

func (t *journalTap) Rename(oldname, newname string) error {
	t.hold(phRenamed)
	if err := t.alive(); err != nil {
		return err
	}
	return t.FS.Rename(oldname, newname)
}

func (t *journalTap) Remove(name string) error {
	t.hold(phRemoved)
	if err := t.alive(); err != nil {
		return err
	}
	return t.FS.Remove(name)
}

func (t *journalTap) SyncDir(dir string) error {
	t.hold(phDirSynced)
	if err := t.alive(); err != nil {
		return err
	}
	return t.FS.SyncDir(dir)
}

// ReadDir is recovery's alone: a checkpoint lists nothing.
func (t *journalTap) ReadDir(dir string) ([]string, error) {
	if err := t.alive(); err != nil {
		return nil, err
	}
	return t.FS.ReadDir(dir)
}

type tapFile struct {
	vfs.File
	t             *journalTap
	temp, journal bool
}

// in is the phase a call on f belongs to if the checkpoint makes it: ph on
// the temp file; on a segment, the one call a checkpoint makes there is the
// sealed segment's close.
func (f tapFile) in(ph ckPhase) ckPhase {
	if f.temp {
		return ph
	}
	return phRemoved
}

func (f tapFile) Write(p []byte) (int, error) {
	f.t.hold(f.in(phTempWritten))
	if err := f.t.injected(f.journal); err != nil {
		return 0, err
	}
	reach, survive := f.t.step(f.journal)
	if !reach {
		return 0, errKilled
	}
	n, err := f.File.Write(p)
	if err == nil && f.journal {
		f.t.note(p)
	}
	if !survive {
		return 0, errKilled
	}
	return n, err
}

func (f tapFile) Close() error {
	f.t.hold(f.in(phTempSynced))
	if err := f.t.alive(); err != nil {
		return err
	}
	return f.File.Close()
}

func (f tapFile) Sync() error {
	f.t.hold(f.in(phTempSynced))
	reach, survive := f.t.step(f.journal)
	if !reach {
		return errKilled
	}
	err := f.File.Sync()
	if !survive {
		return errKilled
	}
	return err
}

// decided turns journal records back into the ops that wrote them, in LSN
// order: what the reference plane is re-driven with.
func decided(recs []durable.Record, jobs map[int]core.Job) ([]op, error) {
	out := make([]op, len(recs))
	for i, r := range recs {
		switch r.Kind {
		case durable.KindObserve:
			out[i] = op{observe: true, now: r.Now}
		case durable.KindCapacity:
			out[i] = op{grow: true}
		case durable.KindAdmit, durable.KindReject:
			job, ok := jobs[r.JobID]
			if !ok {
				return nil, fmt.Errorf("record lsn=%d decides job %d, which was never offered", r.LSN, r.JobID)
			}
			out[i] = op{now: job.Release, job: job}
		default:
			return nil, fmt.Errorf("record lsn=%d of kind %s, which the storm cannot write", r.LSN, r.Kind)
		}
		if r.LSN != uint64(i+1) {
			return nil, fmt.Errorf("journal position %d holds lsn %d", i+1, r.LSN)
		}
	}
	return out, nil
}

// remaining lists, in stream order, the ops still to drive after a
// recovery: those that have no record in the committed prefix.  A clock
// report at or before the recovered clock would write nothing and is
// dropped.  From one caller's ordered drive this is ops[m:].
func remaining(ops []op, committed []op, now float64) []int {
	jobs, grows := make(map[int]bool, len(committed)), 0
	for _, o := range committed {
		switch {
		case o.grow:
			grows++
		case !o.observe:
			jobs[o.job.ID] = true
		}
	}
	var out []int
	for i, o := range ops {
		switch {
		case o.observe:
			if o.now <= now {
				continue
			}
		case o.grow:
			if grows > 0 {
				grows--
				continue
			}
		case jobs[o.job.ID]:
			continue
		}
		out = append(out, i)
	}
	return out
}

// referenceState re-drives ops[0:m] through a fresh in-memory plane that
// never crashes, served and driven like the one under test, and returns its
// exported state: the ground truth any recovery must match bitwise.
func referenceState(ops []op, m int) (durable.State, error) {
	ref, _, err := openPlane(vfs.NewMem(), "ref", durable.StoreOptions{}, 1)
	if err != nil {
		return durable.State{}, err
	}
	defer ref.hangUp()
	if _, err := driveOps(ref, ops, 0, m, nil); err != nil {
		return durable.State{}, fmt.Errorf("reference drive: %w", err)
	}
	return ref.ExportState(), nil
}

// divergence is the artifact written when the oracle fires.
type divergence struct {
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	Phase     string `json:"phase,omitempty"`
	Iteration int    `json:"iteration"`
	CrashOp   int    `json:"crash_op"`
	Recovered uint64 `json:"recovered_lsn"`
	Torn      bool   `json:"torn"`
	Detail    string `json:"detail"`
	When      string `json:"when"`
}

// failed reports d on stderr and appends it to the artifact file, if there
// is one, and returns the run's exit code.  The file is a divergence
// artifact: the header when failed creates it, then one divergence line
// per failure, each with its own mode and seed, since several runs may
// share one file.  An artifact that could not be written is said so next
// to the divergence.
func failed(artifact string, d divergence, stderr io.Writer) int {
	fmt.Fprintf(stderr, "crashtest: FAIL %s (phase=%s iter=%d): %s\n", d.Mode, d.Phase, d.Iteration, d.Detail)
	if artifact == "" {
		return 1
	}
	d.When = time.Now().UTC().Format(time.RFC3339)
	f, err := os.OpenFile(artifact, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		var info os.FileInfo
		if info, err = f.Stat(); err == nil {
			aw := obs.NewArtifactWriter(f)
			if info.Size() == 0 {
				aw.Header(obs.ArtifactDivergence, nil)
			}
			aw.Line("divergence", d)
			err = aw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "crashtest: divergence not written to %s: %v\n", artifact, err)
	}
	return 1
}

type phase struct {
	name string
	// store options for this phase's epochs.
	store durable.StoreOptions
	// arm injects the phase's fault, into the fault filesystem or the tap
	// in front of it.
	arm func(ft *vfs.Fault, tap *journalTap, rng *rand.Rand)
	// lossAllowed: acked grants may legally die (weak sync policy).
	lossAllowed bool
	// mustLose: the phase is a conviction test — across the whole run it
	// must demonstrably lose at least one acked grant.
	mustLose bool
}

func phases() []phase {
	return []phase{
		{
			name:  "sync-always",
			store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 16},
		},
		{
			name:        "unsynced-loss",
			store:       durable.StoreOptions{Sync: durable.SyncEveryN, SyncEvery: 4, SnapshotEvery: 16},
			lossAllowed: true,
		},
		{
			name:  "write-error",
			store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 16},
			arm: func(_ *vfs.Fault, tap *journalTap, rng *rand.Rand) {
				tap.failWrites(errors.New("injected write error"), 5+rng.Intn(40))
			},
		},
		{
			name:  "sync-lie",
			store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 16},
			arm: func(ft *vfs.Fault, _ *journalTap, _ *rand.Rand) {
				ft.SetSyncLie(true)
			},
			lossAllowed: true,
			mustLose:    true,
		},
		{
			name:  "syncdir-lie",
			store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 16},
			arm: func(ft *vfs.Fault, _ *journalTap, _ *rand.Rand) {
				ft.SetSyncDirLie(true)
			},
			lossAllowed: true,
			mustLose:    true,
		},
	}
}

// runVFS is the in-memory crash loop: iters epochs cycling through the
// fault phases, each ending in a crash and a differential check.
func runVFS(seed int64, iters, opsPerIter, callers int, artifact string, stdout, stderr io.Writer) int {
	ph := phases()
	total := iters*opsPerIter + opsPerIter
	ops := genOps(total, seed)
	jobs := make(map[int]core.Job)
	for _, o := range ops {
		if !o.observe && !o.grow {
			jobs[o.job.ID] = o.job
		}
	}

	lost := make(map[string]int) // phase -> acked grants provably lost
	crashes, kills := 0, 0
	var inPhase [phOver]int   // crashes that found a paced checkpoint under way, by the phase it stood in
	recovered := fnv.New64a() // every LSN a recovery came back to, in order
	fail := func(d divergence, format string, args ...any) int {
		d.Mode, d.Seed = "vfs", seed
		d.Detail = fmt.Sprintf(format, args...)
		return failed(artifact, d, stderr)
	}

	for iter := 0; iter < iters; iter++ {
		p := ph[iter%len(ph)]
		rng := rand.New(rand.NewSource(seed + int64(iter)*7919))
		// The kill points draw from a stream of their own, so that one
		// caller's run is the run it always was.
		krng := rand.New(rand.NewSource(seed ^ int64(iter)*104729))

		// Each epoch starts from an empty disk and crash-cycles within it,
		// so every phase exercises genesis, mid-log and post-snapshot
		// recovery points.
		ft := vfs.NewFault(vfs.NewMem())
		tap := newJournalTap(ft)
		plane, _, err := openPlane(tap, "wal", p.store, callers)
		if err != nil {
			return fail(divergence{Phase: p.name, Iteration: iter}, "open: %v", err)
		}
		pending := remaining(ops, nil, 0)
		acked := make(map[int]float64) // jobID -> reserved finish
		for cycle := 0; cycle < 3 && len(pending) > 0; cycle++ {
			span := opsPerIter/3 + rng.Intn(opsPerIter/3+1)
			batch := pending[:min(span, len(pending))]
			if p.arm != nil && cycle == 1 {
				// Arm the fault partway through the epoch so a clean
				// prefix exists under it.
				p.arm(ft, tap, rng)
			}
			if callers > 1 {
				// An op is a write and, for a grant, a flush: most fuses
				// burn out inside the batch, some outlast it and leave
				// the crash to find every caller returned.
				tap.arm(span/2+krng.Intn(span+1), krng.Intn(2) == 0)
			}
			var between func() bool
			if callers <= 1 {
				// One caller's checkpoints keep to the seed too, and its
				// crashes sweep their phases: crash k aims at phase k mod 8,
				// the eighth being wherever the batch's end finds the plane,
				// and is taken at the first op boundary where a checkpoint
				// stands in the phase it aims at, or at the batch's end.
				tap.enterLockstep()
				aim := ckPhase(crashes % (len(phaseNames) + 1))
				between = func() bool {
					tap.pace(plane.Plane, krng)
					ph, ok := tap.checkpointing()
					return !ok || ph != aim
				}
			}
			derr := driveBatch(plane, ops, batch, func(id int, fin float64) {
				acked[id] = fin
			}, between)
			written := len(tap.journal())
			if tap.killed() {
				kills++
			} else if derr != nil && p.arm == nil {
				return fail(divergence{Phase: p.name, Iteration: iter, CrashOp: written},
					"unexpected drive error: %v", derr)
			}

			// The crash takes the checkpoint goroutine where it stands.
			if ph, ok := tap.checkpointing(); ok {
				inPhase[ph]++
			}
			plane.hangUp()
			tap.reap(plane.Plane)
			claimed := plane.DurableLSN()
			ft.Crash()
			crashes++
			// Faults do not survive the "reboot".
			ft.SetSyncLie(false)
			ft.SetSyncDirLie(false)
			journal := tap.journal()
			tap.reboot()

			var rec durable.Recovered
			plane, rec, err = openPlane(tap, "wal", p.store, callers)
			if err != nil {
				return fail(divergence{Phase: p.name, Iteration: iter, CrashOp: written},
					"recovery: %v", err)
			}
			m := int(rec.State.LSN)
			fmt.Fprintf(recovered, "%d,", m)
			at := divergence{Phase: p.name, Iteration: iter, CrashOp: written, Recovered: rec.State.LSN, Torn: rec.Torn}
			if m > written {
				return fail(at, "recovered lsn %d, only %d records were ever written", m, written)
			}
			// Durability oracle: what the plane held to be on stable storage
			// when it died, its acknowledgements' ground, a disk that keeps
			// its word gives back.
			if !p.mustLose && uint64(m) < claimed {
				return fail(at, "recovered lsn %d, the plane held lsn %d durable", m, claimed)
			}

			// Differential oracle: recovered state == never-crashed
			// reference over the committed prefix — the first m decisions
			// in the order the journal took them — bit for bit.
			prefix, err := decided(journal[:m], jobs)
			if err != nil {
				return fail(at, "%v", err)
			}
			want, err := referenceState(prefix, m)
			if err != nil {
				return fail(at, "%v", err)
			}
			got := plane.ExportState()
			if err := durable.DiffStates(&got, &want); err != nil {
				return fail(at, "recovered state diverged from reference: %v", err)
			}

			// Capacity oracle: the recovered pool must be the seed
			// capacity plus exactly the committed grow ops — a capacity
			// record lost or double-applied in replay shifts the total.
			wantProcs := procs + growsIn(prefix, m)
			if gotProcs := plane.Procs(); gotProcs != wantProcs {
				return fail(at, "recovered capacity %d procs, committed prefix implies %d", gotProcs, wantProcs)
			}

			// Grant-loss accounting.  A lost grant whose admit record lies
			// beyond the recovered prefix is a loss of the phase's; one
			// within it is a recovery bug.
			admitLSN := make(map[int]uint64, len(acked))
			for _, r := range journal {
				if r.Kind == durable.KindAdmit {
					admitLSN[r.JobID] = r.LSN
				}
			}
			for _, id := range got.Lost(acked) {
				lsn := admitLSN[id]
				if lsn != 0 && lsn <= uint64(m) {
					return fail(at, "acked grant %d is record %d of the recovered prefix and not live", id, lsn)
				}
				lost[p.name]++
				delete(acked, id)
				if !p.lossAllowed {
					return fail(at, "acked grant %d (lsn %d) lost under %s", id, lsn, p.name)
				}
			}
			// A grant that ran out by this clock is owed nothing more,
			// whatever the clock of a later recovery says.
			maps.DeleteFunc(acked, func(_ int, fin float64) bool { return fin <= got.Now })
			tap.cut(m)
			pending = remaining(ops, prefix, plane.Now())
		}
		plane.hangUp()
	}

	// Conviction: the lying-disk phases must have provably lost acked
	// grants — otherwise the oracle cannot detect a lying disk at all.
	for _, p := range ph {
		if p.mustLose && lost[p.name] == 0 {
			return fail(divergence{Phase: p.name},
				"lie phase lost no acked grants across %d crashes — oracle is blind to a lying disk", crashes)
		}
	}
	if callers > 1 {
		fmt.Fprintf(stdout, "crashtest vfs ok: seed=%d callers=%d crashes=%d mid-flight=%d losses=%v\n", seed, callers, crashes, kills, lost)
		return 0
	}
	midCheckpoint, byPhase := 0, make([]string, len(inPhase))
	for ph, n := range inPhase {
		midCheckpoint += n
		byPhase[ph] = fmt.Sprintf("%s:%d", phaseNames[ph], n)
	}
	fmt.Fprintf(stdout, "crashtest vfs ok: seed=%d crashes=%d mid-checkpoint=%d phases=%v recovered=%016x losses=%v\n",
		seed, crashes, midCheckpoint, byPhase, recovered.Sum64(), lost)
	return 0
}

// runSoak holds one log lineage under SyncAlways through iters crash/recover
// cycles of at least opsPerIter ops each.  A cycle runs on until its last
// record is a grant, whose flush carries every record before it, so each
// recovery must equal the state exported the instant before the crash and
// lose none of the cycle's acknowledged grants.  The soak keeps its machine:
// it skips the stream's grows, which over a long lineage would grow it past
// refusing anything.
func runSoak(seed int64, iters, opsPerIter int, artifact string, stdout, stderr io.Writer) int {
	store := durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 128}
	fail := func(cycle int, format string, args ...any) int {
		return failed(artifact, divergence{Mode: "soak", Seed: seed, Iteration: cycle, Detail: fmt.Sprintf(format, args...)}, stderr)
	}
	mem := vfs.NewMem()
	plane, _, err := openPlane(mem, "wal", store, 1)
	if err != nil {
		return fail(0, "open: %v", err)
	}
	ops := genOps(2*(iters+1)*opsPerIter, seed)
	next, driven, admitted := 0, 0, 0
	for cycle := 1; cycle <= iters; cycle++ {
		acked := make(map[int]float64)
		for n, promised := 0, false; n < opsPerIter || !promised; {
			if next == len(ops) {
				ops = genOps(2*len(ops), seed)
			}
			o := ops[next]
			next++
			if o.grow {
				continue
			}
			n, driven, promised = n+1, driven+1, false
			if err := applyOp(plane, plane.conns[0], o, func(id int, fin float64) {
				acked[id] = fin
				promised = true
			}); err != nil {
				return fail(cycle, "op %d: %v", next-1, err)
			}
		}
		admitted += len(acked)

		want := plane.ExportState()
		plane.hangUp()
		// A checkpoint's goroutine does not die with the "process".
		if err := plane.WaitCheckpoint(); err != nil {
			return fail(cycle, "checkpoint before the crash: %v", err)
		}
		mem.Crash()
		var rec durable.Recovered
		plane, rec, err = openPlane(mem, "wal", store, 1)
		if err != nil {
			return fail(cycle, "recovery: %v", err)
		}
		got := plane.ExportState()
		if err := durable.DiffStates(&got, &want); err != nil {
			return fail(cycle, "recovered state diverged from the state before the crash: %v", err)
		}
		if lost := got.Lost(acked); len(lost) > 0 {
			return fail(cycle, "acked grants %v lost (lsn %d)", lost, rec.State.LSN)
		}
		fmt.Fprintf(stdout, "cycle %d ok: ops=%d admitted=%d lsn=%d\n", cycle, driven, admitted, rec.State.LSN)
	}
	plane.hangUp()
	fmt.Fprintf(stdout, "crashtest soak ok: seed=%d cycles=%d ops=%d admitted=%d\n", seed, iters, driven, admitted)
	return 0
}

// childStore is the sigkill child's log: a flush per promise, a checkpoint
// every 32 records.  The parent recovers the directory with the same.
var childStore = durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 32}

// runChild is the sigkill-mode child: it recovers the directory, then
// drives the deterministic op stream against the real filesystem,
// printing "ack <jobID> <finish bits>" after every grant its client
// decoded.  It is killed by the parent; it never exits on its own unless
// the stream ends.
func runChild(dir string, seed int64, stdout io.Writer) int {
	var fs vfs.OS
	if err := fs.MkdirAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "crashtest child: %v\n", err)
		return 2
	}
	plane, rec, err := openPlane(fs, dir, childStore, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest child: open: %v\n", err)
		return 2
	}
	ops := genOps(4096, seed)
	next := int(rec.State.LSN)
	w := bufio.NewWriter(stdout)
	_, err = driveOps(plane, ops, next, len(ops), func(id int, fin float64) {
		// The ack is printed only once the grant crossed the wire, i.e.
		// after its admit record was fsynced: every printed line must
		// survive.
		fmt.Fprintf(w, "ack %d %016x\n", id, math.Float64bits(fin))
		w.Flush()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest child: drive: %v\n", err)
		return 2
	}
	return 0
}

// runSigkill crash-loops a real process: spawn the child, harvest acks,
// SIGKILL it mid-storm, recover the directory and require every
// acknowledged grant to have survived or run out.  Every pass also runs
// the differential oracle against the in-memory reference.
func runSigkill(seed int64, kills int, dir, artifact string, stdout, stderr io.Writer) int {
	if dir == "" {
		d, err := os.MkdirTemp("", "crashtest-*")
		if err != nil {
			fmt.Fprintf(stderr, "crashtest: %v\n", err)
			return 2
		}
		defer os.RemoveAll(d)
		dir = d
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "crashtest: %v\n", err)
		return 2
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51ead))
	acked := make(map[int]float64) // jobID -> reserved finish, as the child decoded it
	ops := genOps(4096, seed)

	fail := func(iter int, format string, args ...any) int {
		return failed(artifact, divergence{Mode: "sigkill", Seed: seed, Iteration: iter, Detail: fmt.Sprintf(format, args...)}, stderr)
	}

	for k := 0; k < kills; k++ {
		cmd := exec.Command(exe,
			"-mode", "child", "-dir", dir,
			"-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return fail(k, "pipe: %v", err)
		}
		if err := cmd.Start(); err != nil {
			return fail(k, "start: %v", err)
		}
		// Harvest a random number of acks, then SIGKILL mid-storm.
		quota := 3 + rng.Intn(20)
		sc := bufio.NewScanner(pipe)
		harvested := 0
		for harvested < quota && sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 3 || fields[0] != "ack" {
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return fail(k, "bad ack line %q", sc.Text())
			}
			bits, err := strconv.ParseUint(fields[2], 16, 64)
			if err != nil {
				return fail(k, "bad ack line %q", sc.Text())
			}
			acked[id] = math.Float64frombits(bits)
			harvested++
		}
		_ = cmd.Process.Kill() // SIGKILL: no cleanup, no deferred flushes
		go io.Copy(io.Discard, pipe)
		_ = cmd.Wait()

		// Recover the real directory: every acked grant is live or has run
		// out at the recovered clock.
		var fs vfs.OS
		plane, rec, err := openPlane(fs, dir, childStore, 1)
		if err != nil {
			return fail(k, "recovery: %v", err)
		}
		if lost := rec.State.Lost(acked); len(lost) > 0 {
			return fail(k, "acked grants %v missing after SIGKILL recovery (lsn %d torn=%t)", lost, rec.State.LSN, rec.Torn)
		}
		// Differential oracle on the real directory, same as vfs mode.
		m := int(rec.State.LSN)
		want, err := referenceState(ops, m)
		if err != nil {
			return fail(k, "%v", err)
		}
		got := plane.ExportState()
		if err := durable.DiffStates(&got, &want); err != nil {
			return fail(k, "recovered state diverged from reference at lsn %d: %v", m, err)
		}
		wantProcs := procs + growsIn(ops, m)
		if gotProcs := plane.Procs(); gotProcs != wantProcs {
			return fail(k, "recovered capacity %d procs, committed prefix implies %d (lsn %d)", gotProcs, wantProcs, m)
		}
		plane.hangUp()
		if err := plane.Close(); err != nil {
			return fail(k, "close: %v", err)
		}
	}
	fmt.Fprintf(stdout, "crashtest sigkill ok: seed=%d kills=%d acked=%d\n", seed, kills, len(acked))
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlags(stderr)
	if err := fs.fs.Parse(args); err != nil {
		return 2
	}
	seed := *fs.seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	switch *fs.mode {
	case "vfs":
		fmt.Fprintf(stdout, "crashtest mode=vfs seed=%d\n", seed)
		return runVFS(seed, *fs.iters, *fs.ops, *fs.callers, *fs.artifact, stdout, stderr)
	case "sigkill":
		fmt.Fprintf(stdout, "crashtest mode=sigkill seed=%d\n", seed)
		return runSigkill(seed, *fs.kills, *fs.dir, *fs.artifact, stdout, stderr)
	case "soak":
		fmt.Fprintf(stdout, "crashtest mode=soak seed=%d\n", seed)
		return runSoak(seed, *fs.iters, *fs.ops, *fs.artifact, stdout, stderr)
	case "child":
		return runChild(*fs.dir, seed, stdout)
	default:
		fmt.Fprintf(stderr, "crashtest: unknown -mode %q\n", *fs.mode)
		return 2
	}
}
