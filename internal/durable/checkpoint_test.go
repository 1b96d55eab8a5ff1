package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/workload"
)

// This file holds a checkpoint to what it became once it left the admission
// path: the snapshot its goroutine folds together is the export the plane
// would have taken under the lock, nobody waits while it is written, and the
// errors its file calls can return are not dropped.

// snapshotFile is the bytes of a snapshot file holding st.
func snapshotFile(st *State) []byte {
	var b bytes.Buffer
	b.WriteString(snapMagic)
	binary.Write(&b, binary.LittleEndian, uint32(formatVersion))
	b.Write(framed(appendSnapshot(nil, st)))
	return b.Bytes()
}

func readAll(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sealTap is the filesystem under TestCheckpointIsTheExport's plane.  A seal
// creates its fresh segment under the plane lock, on the sealing call's own
// goroutine, so the tap — which the plane knows nothing of — can take the
// export the old compaction would have taken at that very point, and hold the
// snapshot the checkpoint publishes to it.
type sealTap struct {
	vfs.FS
	t *testing.T
	p *Plane // set once the plane is open: Open's own checkpoint is not a seal

	seals  int
	sealOp []int  // the op each seal was carried by
	op     int    // the op under way
	lsn    uint64 // the last seal's cut
	want   []byte // the snapshot file the last seal's checkpoint owes
}

func (s *sealTap) Create(name string) (vfs.File, error) {
	if first, ok := parseName(filepath.Base(name), "wal-", ".log"); ok && s.p != nil {
		s.sealed(first - 1)
	}
	return s.FS.Create(name)
}

func (s *sealTap) sealed(lsn uint64) {
	p := s.p
	if p.mu.TryLock() {
		p.mu.Unlock()
		s.t.Fatalf("op %d: a segment is swapped in with the plane lock free", s.op)
	}
	// A seal finds no checkpoint in flight: the last one's snapshot is there.
	s.published()
	// The export, taken on a copy of the map: it sweeps what it walks, and
	// how long the plane's own map keeps an elapsed grant is under test too.
	kept := maps.Clone(p.grants)
	st := p.exportStateLocked()
	p.grants = kept
	if st.LSN != lsn {
		s.t.Fatalf("op %d: fresh segment starts after lsn %d, the log head is %d", s.op, lsn, st.LSN)
	}
	st.prune()
	s.lsn, s.want = lsn, snapshotFile(&st)
	s.seals++
	s.sealOp = append(s.sealOp, s.op)
}

// published holds the last seal's snapshot file to the export taken at it.
func (s *sealTap) published() {
	if s.want == nil {
		return
	}
	got := readAll(s.t, s.FS, filepath.Join("log", snapName(s.lsn)))
	if !bytes.Equal(got, s.want) {
		s.t.Fatalf("op %d: snapshot at lsn %d is %d bytes and differs from the export taken at its seal (%d bytes)", s.op, s.lsn, len(got), len(s.want))
	}
}

// TestCheckpointIsTheExport: every snapshot a checkpoint publishes is, byte
// for byte, the pruned export taken under the lock at its seal — over task
// and DAG grants, completions of live and of elapsed grants, IDs granted
// anew, capacity changes and clock reports that land exactly on a finish —
// and the plane's map never holds more than the live grants and those that
// elapsed since the seal before last.
func TestCheckpointIsTheExport(t *testing.T) {
	t.Run("shards=1", checkpointIsTheExport)
}

func checkpointIsTheExport(t *testing.T) {
	const ops = 4000
	rng := rand.New(rand.NewSource(24))
	tap := &sealTap{FS: vfs.NewMem(), t: t}
	p, _ := openPlane(t, tap, StoreOptions{SnapshotEvery: 48})
	tap.p = p
	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}

	var (
		now       float64
		live      = map[int]float64{} // granted and neither completed nor elapsed: ID -> finish
		elapsedOp = map[int]int{}     // elapsed and not granted anew: ID -> the op that saw it elapse
		gone      []int               // elapsed IDs, to complete again and to grant anew
		nextID    int
		maxStale  int
	)
	observe := func(to float64) {
		p.Observe(to)
		if to <= now {
			return
		}
		now = to
		for id, fin := range live {
			if fin <= now {
				delete(live, id)
				elapsedOp[id] = tap.op
				gone = append(gone, id)
			}
		}
	}
	granted := func(g *qos.Grant, err error) {
		if err != nil {
			if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("op %d: %v", tap.op, err)
			}
			return
		}
		live[g.JobID] = g.Finish()
		delete(elapsedOp, g.JobID)
	}
	for tap.op = 0; tap.op < ops; tap.op++ {
		switch k := rng.Intn(20); {
		case k < 8: // a task grant, now and then under the ID of one long gone
			id := nextID
			if len(gone) > 0 && rng.Intn(10) == 0 {
				id = gone[rng.Intn(len(gone))]
			} else {
				nextID++
			}
			if _, held := live[id]; held {
				break
			}
			observe(now + rng.ExpFloat64())
			granted(p.Negotiate(tmpl.Job(id, now, workload.Tunable)))
		case k < 10: // a DAG grant
			deadline := now + 40 + 40*rng.Float64()
			task := func(d float64, preds ...int) core.DAGTask {
				return core.DAGTask{Task: core.Task{Procs: 2, Duration: d, Deadline: deadline}, Preds: preds}
			}
			job := core.DAGJob{ID: nextID, Release: now, Alts: []core.DAG{{
				Name:  "diamond",
				Tasks: []core.DAGTask{task(3), task(6, 0), task(6, 0), task(3, 1, 2)},
			}}}
			nextID++
			granted(p.NegotiateDAG(job))
		case k < 14: // a clock report: one in three lands exactly on a finish
			to := now + rng.Float64()*4
			if rng.Intn(3) == 0 {
				next := math.Inf(1)
				for _, fin := range live {
					next = min(next, fin)
				}
				if !math.IsInf(next, 1) {
					to = next
				}
			}
			observe(to)
		case k < 18: // a completion: of a live grant, of one that has elapsed, of nothing
			id := -1
			switch pick := rng.Intn(6); {
			case pick < 4 && len(live) > 0:
				for l := range live {
					if id < 0 || l < id {
						id = l
					}
				}
			case pick < 5 && len(gone) > 0:
				id = gone[rng.Intn(len(gone))]
				if _, again := live[id]; again {
					id = -1
				}
			}
			if err := p.JobCompleted(id, now); err != nil {
				t.Fatalf("op %d: complete %d: %v", tap.op, id, err)
			}
			delete(live, id)
		default: // a machine joins, or leaves if nothing is reserved on it
			total := p.Procs() + 1
			if rng.Intn(2) == 0 && total > 17 {
				total -= 2
			}
			p.SetTotalCapacity(total)
			if err := p.Err(); err != nil {
				t.Fatalf("op %d: %v", tap.op, err)
			}
		}

		// A seal that finds the last checkpoint still running is put off to
		// the next record, and how long a checkpoint runs is the scheduler's
		// business: every other op waits it out, so the stream meets both a
		// seal that was put off and seals enough.
		if tap.op%2 == 1 {
			if err := p.WaitCheckpoint(); err != nil {
				t.Fatalf("op %d: %v", tap.op, err)
			}
		}

		// The map: live grants, and those whose time ran out after the seal
		// before last — the last checkpoint's fold found the earlier ones and
		// the last seal dropped them.
		since := -1
		if n := len(tap.sealOp); n >= 2 {
			since = tap.sealOp[n-2]
		}
		stale := 0
		for _, at := range elapsedOp {
			if at > since {
				stale++
			}
		}
		p.mu.Lock()
		held := len(p.grants)
		for id := range live {
			if _, ok := p.liveGrant(id); !ok {
				t.Fatalf("op %d: live grant %d not visible", tap.op, id)
			}
		}
		p.mu.Unlock()
		if held > len(live)+stale {
			t.Fatalf("op %d: the map holds %d grants: %d are live, %d elapsed since the seal before last (op %d)", tap.op, held, len(live), stale, since)
		}
		maxStale = max(maxStale, held-len(live))
	}
	if err := p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	tap.published()
	if tap.seals < ops/100 || maxStale == 0 {
		t.Fatalf("%d seals, at most %d elapsed grants in the map: the stream does not exercise the fold", tap.seals, maxStale)
	}
	got := p.Grants()
	if len(got) != len(live) {
		t.Fatalf("%d grants live at the end, the reference holds %d", len(got), len(live))
	}
	for _, g := range got {
		if fin, ok := live[g.JobID]; !ok || fb(fin) != fb(g.finish()) {
			t.Fatalf("grant %d live to %v at the end, the reference says %v (held: %t)", g.JobID, g.finish(), fin, ok)
		}
	}
	t.Logf("%d ops: %d seals, %d IDs granted, at most %d elapsed grants in the map", ops, tap.seals, nextID, maxStale)
}

// TestFoldGrants pins the fold on the cases a stream meets rarely: an ID
// completed and granted anew inside one delta, a grant that is granted and
// runs out between two seals, the last change of an ID winning.
func TestFoldGrants(t *testing.T) {
	g := func(id int, finish float64) GrantRecord {
		return GrantRecord{JobID: id, Tasks: []core.TaskPlacement{{Procs: 1, Start: 0, Finish: finish}}}
	}
	base := []GrantRecord{g(1, 5), g(3, 20), g(4, 20), g(7, 9), g(9, 30)}
	delta := []grantDelta{
		{g: g(8, 25)},
		{g: g(3, 0), done: true},
		{g: g(2, 6)},              // granted and run out before the cut
		{g: g(4, 0), done: true},  // completed ...
		{g: g(4, 40)},             // ... and granted anew
		{g: g(12, 50)},            // granted ...
		{g: g(12, 0), done: true}, // ... and completed
		{g: g(9, 35)},             // granted anew over a live grant: the later stands
	}
	f := fold{now: 10}
	f.grants(base, delta)
	live, elapsed := f.live, f.elapsed
	var ids []int
	for _, l := range live {
		ids = append(ids, l.JobID)
	}
	if want := []int{4, 8, 9}; !slices.Equal(ids, want) || live[0].finish() != 40 || live[2].finish() != 35 {
		t.Fatalf("live after the fold: %v (%+v), want %v with 4 live to 40 and 9 to 35", ids, live, want)
	}
	if want := []int{1, 2, 7}; !slices.Equal(elapsed, want) {
		t.Fatalf("elapsed: %v, want %v", elapsed, want)
	}

	// The next checkpoint folds into the same buffers, as the store lends
	// them: nothing of the longer fold before shows through.
	f.now = 36
	f.grants(slices.Clone(live), []grantDelta{{g: g(8, 0), done: true}})
	if len(f.live) != 1 || f.live[0].JobID != 4 || !slices.Equal(f.elapsed, []int{9}) {
		t.Fatalf("second fold into reused buffers: live %+v, elapsed %v; want 4 live and 9 elapsed", f.live, f.elapsed)
	}
	if &f.elapsed[0] != &elapsed[0] {
		t.Fatal("the second fold did not reuse the elapsed buffer it was lent")
	}
}

// TestNoCallWaitsForACheckpoint is the backpressure a slow disk meets: with a
// checkpoint's temp sync parked, five times SnapshotEvery further records —
// grants with their flushes, refusals, clock reports, completions — go
// through, none of them blocks, no second checkpoint starts and one cut is all
// that is held; the log grows meanwhile.  Released, the checkpoint finishes,
// the next record carries the seal that was due, and the directory ends as one
// snapshot and the segment after it.
func TestNoCallWaitsForACheckpoint(t *testing.T) {
	const every = 8
	r := newRig(t, StoreOptions{SnapshotEvery: every})
	if err := r.p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	var temps atomic.Int64 // checkpoints that got as far as their temp file
	r.gate.watch = func(ev gateEvent) {
		if ev.op == "create" && !ev.after && isTemp(ev.name) {
			temps.Add(1)
		}
	}
	tick := func() { r.p.Observe(r.p.Now() + 1e-3) }
	segments := func() (n int) {
		names, _ := r.fault.ReadDir("log")
		for _, name := range names {
			if isSegment(name) {
				n++
			}
		}
		return n
	}

	pk := r.gate.parkAt(snapshotSync(false))
	last := r.p.store.ckpt
	for r.p.store.ckpt == last {
		tick() // until a record carries a seal
	}
	r.reached(pk, "the checkpoint's temp sync")
	held := r.p.store.ckpt
	if got := segments(); got != 2 {
		t.Fatalf("%d segments with a checkpoint in flight, want the sealed one and the open one", got)
	}

	live := r.p.Grants()
	for i := 0; i < 5*every; i++ {
		done := make(chan error, 1)
		go func() {
			switch i % 4 {
			case 0:
				job := r.grantable()
				_, err := r.p.Negotiate(job)
				if err == nil && r.p.DurableLSN() < r.written() {
					err = fmt.Errorf("grant %d acknowledged at lsn %d with the log durable to %d", job.ID, r.written(), r.p.DurableLSN())
				}
				done <- err
			case 1:
				if _, err := r.p.Negotiate(r.refusable()); !errors.Is(err, qos.ErrRejected) {
					done <- fmt.Errorf("the filled stretch took another job: %v", err)
					return
				}
				done <- nil
			case 2:
				tick()
				done <- r.p.Err()
			default:
				done <- r.p.JobCompleted(live[i/4].JobID, r.p.Now())
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("call %d behind a parked checkpoint: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d waits for a checkpoint in progress", i)
		}
	}
	if r.p.store.ckpt != held || temps.Load() != 1 {
		t.Fatalf("%d checkpoints reached the disk (the one in flight replaced: %t) with the first still parked", temps.Load(), r.p.store.ckpt != held)
	}
	if got := segments(); got != 2 {
		t.Fatalf("%d segments after %d records behind a parked checkpoint: the log grows in the open one", got, 5*every)
	}

	pk.release()
	if err := r.p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	tick() // the seal that has been due since rides the next record
	if r.p.store.ckpt == held {
		t.Fatal("the record after a finished checkpoint did not carry the seal that was due")
	}
	if err := r.p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < every-1; i++ {
		tick() // and no other until SnapshotEvery more
	}
	if err := r.p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := temps.Load(); got != 2 {
		t.Fatalf("%d checkpoints in all, want the parked one and exactly one more", got)
	}
	head := r.written() - (every - 1)
	if names, _ := r.fault.ReadDir("log"); !slices.Equal(names, []string{snapName(head), segName(head + 1)}) {
		t.Fatalf("the directory ends as %v, want the snapshot at lsn %d and the segment after it", names, head)
	}
}

// TestSealedSegmentCloseFailurePoisons: the close of the segment a seal
// retired reports what the system failed to write back of it, and records
// were acknowledged on that segment; its error is not dropped, whoever makes
// the call.  Under always it is the first flush after the seal, and the grant
// that waits for that flush is not acknowledged; under never it is the
// checkpoint, and Snapshot says so.  Either way the plane stops, and what the
// log holds is the plane as it stood.
func TestSealedSegmentCloseFailurePoisons(t *testing.T) {
	boom := errors.New("write-back failed")
	jobs := planeStream(60, 53)
	for _, pol := range []SyncPolicy{SyncAlways, syncNever} {
		ft := vfs.NewFault(vfs.NewMem())
		opts := StoreOptions{Sync: pol, SnapshotEvery: 1 << 20}
		p, _ := openPlane(t, ft, opts)
		drive(t, p.Observe, p.Negotiate, jobs[:40])
		var err error
		if pol == SyncAlways {
			// The next record carries a seal; it is a grant, and its flush
			// closes the sealed segment.
			p.store.recordsSinceSnap = opts.SnapshotEvery - 1
			ft.SetCloseError(boom, 0)
			far := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(1000, 1e4, workload.Tunable)
			_, err = p.Negotiate(far)
		} else {
			// Nobody flushes: the checkpoint closes its temp file, then the
			// sealed segment.
			ft.SetCloseError(boom, 1)
			err = p.Snapshot()
		}
		if !errors.Is(err, boom) || !errors.Is(p.Err(), boom) {
			t.Fatalf("%s: the call returned %v and the plane reports %v, want the failed close from both", pol, err, p.Err())
		}
		if _, err := p.Negotiate(jobs[40]); err == nil || errors.Is(err, qos.ErrRejected) {
			t.Fatalf("%s: a plane whose sealed segment failed to close kept deciding: %v", pol, err)
		}
		ft.SetCloseError(nil, 0)
		_ = p.WaitCheckpoint() // under always the seal's, which finds the store poisoned
		want := p.ExportState()
		_, rec := openPlane(t, ft, opts)
		if err := DiffStates(&rec.State, &want); err != nil {
			t.Fatalf("%s: reopened after the failed close: %v", pol, err)
		}
	}
}

// TestOpenSegmentCloseFailureIsReported: Close flushes the written tail and
// then closes the open segment, whose close reports what the system failed
// to write back of it; Close returns that error rather than drop it.  Every
// acknowledged grant was synced before the close, so after a power loss
// recovery still holds them all.
func TestOpenSegmentCloseFailureIsReported(t *testing.T) {
	boom := errors.New("write-back failed")
	jobs := planeStream(60, 67)
	for _, pol := range []SyncPolicy{SyncAlways, SyncEveryN} {
		mem := vfs.NewMem()
		ft := vfs.NewFault(mem)
		opts := StoreOptions{Sync: pol, SnapshotEvery: 1 << 20}
		p, _ := openPlane(t, ft, opts)
		acked := map[int]float64{}
		for _, job := range jobs {
			p.Observe(job.Release)
			g, err := p.Negotiate(job)
			if err == nil {
				acked[g.JobID] = g.Finish()
			} else if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("%s: job %d: %v", pol, job.ID, err)
			}
		}
		if len(acked) == 0 {
			t.Fatalf("%s: the stream granted nothing: no promise to keep", pol)
		}
		if err := p.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		ft.SetCloseError(boom, 0) // the open segment's is the only close left
		if err := p.Close(); !errors.Is(err, boom) {
			t.Fatalf("%s: Close returned %v, want the open segment's failed close", pol, err)
		}
		ft.SetCloseError(nil, 0)
		mem.Crash()
		p2, rec := openPlane(t, ft, opts)
		if lost := rec.State.Lost(acked); len(lost) > 0 {
			t.Fatalf("%s: after the failed close and a crash, recovery lost acknowledged grants %v", pol, lost)
		}
		p2.Close()
	}
}

// TestCheckpointAtAnUnchangedLSN: a checkpoint removes what it covers by
// name, and a checkpoint with nothing written since the last one covers
// nothing: its seal swaps no segment and it republishes the snapshot under
// the same name, so the directory keeps both, and a crash after it, or a
// reopen and another, recovers the plane as it stood.
func TestCheckpointAtAnUnchangedLSN(t *testing.T) {
	mem := vfs.NewMem()
	opts := StoreOptions{SnapshotEvery: 1 << 20}
	p, _ := openPlane(t, mem, opts)
	drive(t, p.Observe, p.Negotiate, planeStream(40, 71))
	for i := 0; i < 3; i++ {
		if err := p.Snapshot(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		head := p.ExportState().LSN
		if names, _ := mem.ReadDir("log"); !slices.Equal(names, []string{snapName(head), segName(head + 1)}) {
			t.Fatalf("checkpoint %d at lsn %d leaves %v, want its snapshot and the segment after it", i, head, names)
		}
	}
	want := p.ExportState()
	mem.Crash()
	for reopen := 0; reopen < 2; reopen++ {
		p2, rec := openPlane(t, mem, opts)
		if err := DiffStates(&rec.State, &want); err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		if err := p2.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if names, _ := mem.ReadDir("log"); !slices.Equal(names, []string{snapName(want.LSN), segName(want.LSN + 1)}) {
			t.Fatalf("reopen %d: the directory holds %v, want the snapshot at lsn %d and the segment after it", reopen, names, want.LSN)
		}
		p2.Close()
	}
}

// TestFailedRemoveLeavesAReadableDirectory: a checkpoint that cannot remove
// what its snapshot covers reports it, and leaves a directory — two
// snapshots, the sealed segment, the open one — that recovery reads as the
// plane stood, crash or no crash.
func TestFailedRemoveLeavesAReadableDirectory(t *testing.T) {
	boom := errors.New("unlink failed")
	jobs := planeStream(60, 59)
	for _, crashed := range []bool{false, true} {
		ft := vfs.NewFault(vfs.NewMem())
		opts := StoreOptions{SnapshotEvery: 1 << 20}
		p, _ := openPlane(t, ft, opts)
		drive(t, p.Observe, p.Negotiate, jobs[:40])
		ft.SetRemoveError(boom)
		if err := p.Snapshot(); !errors.Is(err, boom) || !errors.Is(p.Err(), boom) {
			t.Fatalf("snapshot returned %v and the plane reports %v, want the failed remove from both", err, p.Err())
		}
		ft.SetRemoveError(nil)
		want := p.ExportState()
		if names, _ := ft.ReadDir("log"); len(names) != 4 {
			t.Fatalf("after the failed removals the directory holds %v, want both snapshots and both segments", names)
		}
		if crashed {
			ft.Crash()
		}
		p2, rec := openPlane(t, ft, opts)
		if err := DiffStates(&rec.State, &want); err != nil {
			t.Fatalf("crashed=%t: reopened after the failed removals: %v", crashed, err)
		}
		if rec.SnapshotLSN != want.LSN || rec.Records != 0 {
			t.Fatalf("crashed=%t: recovery started from the snapshot at %d and replayed %d records, want the one at %d and none", crashed, rec.SnapshotLSN, rec.Records, want.LSN)
		}
		if names, _ := ft.ReadDir("log"); len(names) != 2 {
			t.Fatalf("crashed=%t: the reopened directory holds %v, want one snapshot and one segment", crashed, names)
		}
		p2.Close()
	}
}

// opensLog is a filesystem that lists every name opened for reading.
type opensLog struct {
	vfs.FS
	opened []string
}

func (o *opensLog) Open(name string) (vfs.File, error) {
	o.opened = append(o.opened, name)
	return o.FS.Open(name)
}

// TestFailedSnapshotRenamePoisons: a checkpoint that cannot rename its temp
// file into place reports it, and the store stops: the next Negotiate fails
// fast with that error and writes nothing.  After a crash that kept the
// stale temp file, a reopen recovers every acknowledged promise from the
// previous snapshot and the log, never opens the temp file, and the
// recovery's own checkpoint clears it away.
func TestFailedSnapshotRenamePoisons(t *testing.T) {
	boom := errors.New("rename failed")
	jobs := planeStream(60, 61)
	mem := vfs.NewMem()
	ft := vfs.NewFault(mem)
	opts := StoreOptions{SnapshotEvery: 1 << 20}
	p, _ := openPlane(t, ft, opts)
	acked := map[int]float64{}
	for _, job := range jobs[:40] {
		p.Observe(job.Release)
		g, err := p.Negotiate(job)
		if err == nil {
			acked[g.JobID] = g.Finish()
		} else if !errors.Is(err, qos.ErrRejected) {
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	if len(acked) == 0 {
		t.Fatal("the stream granted nothing: no promise to keep")
	}

	ft.SetRenameError(boom)
	if err := p.Snapshot(); !errors.Is(err, boom) || !errors.Is(p.Err(), boom) {
		t.Fatalf("snapshot returned %v and the plane reports %v, want the failed rename from both", err, p.Err())
	}
	ft.SetRenameError(nil)
	before := ft.Counts()
	if _, err := p.Negotiate(jobs[40]); !errors.Is(err, boom) {
		t.Fatalf("the next Negotiate on the poisoned store returned %v, want the failed rename", err)
	}
	if after := ft.Counts(); after.Writes != before.Writes || after.Syncs != before.Syncs {
		t.Fatalf("the refused Negotiate touched the disk: %+v -> %+v", before, after)
	}
	tmp := ""
	names, _ := ft.ReadDir("log")
	for _, n := range names {
		if filepath.Ext(n) == ".tmp" {
			tmp = filepath.Join("log", n)
		}
	}
	if tmp == "" {
		t.Fatalf("no temp file left behind the failed rename: %v", names)
	}
	// The directory's entries reach the disk (the next SyncDir of anyone
	// would carry them), so the stale temp file outlives the crash.
	if err := mem.SyncDir("log"); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	fs := &opensLog{FS: ft}
	p2, rec := openPlane(t, fs, opts)
	defer p2.Close()
	if lost := rec.State.Lost(acked); len(lost) > 0 {
		t.Fatalf("after the failed rename and a crash, recovery lost acknowledged grants %v", lost)
	}
	if slices.Contains(fs.opened, tmp) {
		t.Fatalf("recovery read the stale %s (opened %v)", tmp, fs.opened)
	}
	if f, err := ft.Open(tmp); err == nil {
		f.Close()
		t.Fatalf("the stale %s outlived the recovery's checkpoint", tmp)
	}
}
