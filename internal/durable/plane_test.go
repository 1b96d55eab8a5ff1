package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// The durable plane must be a drop-in arbitrator for qosnet servers.
var _ qosnet.Arbitrator = (*Plane)(nil)

func planeStream(n int, seed int64) []core.Job {
	p := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	return p.Stream(workload.NewPoisson(6, seed), n, workload.Tunable)
}

func openPlane(t *testing.T, fs vfs.FS, opts StoreOptions) (*Plane, Recovered) {
	t.Helper()
	p, rec, err := OpenPlane(Config{FS: fs, Dir: "log", Procs: 16, Store: opts})
	if err != nil {
		t.Fatalf("open plane: %v", err)
	}
	return p, rec
}

// drive pushes jobs through any negotiator-shaped plane, observing each
// release first (the sim loop's discipline), and returns granted job IDs.
func drive(t *testing.T, observe func(float64), negotiate func(core.Job) (*qos.Grant, error), jobs []core.Job) []int {
	t.Helper()
	var granted []int
	for _, job := range jobs {
		observe(job.Release)
		g, err := negotiate(job)
		if err != nil {
			if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("job %d: %v", job.ID, err)
			}
			continue
		}
		granted = append(granted, g.JobID)
	}
	return granted
}

// crash is a power failure under a plane that takes checkpoints on its own:
// the one in flight is let finish first, since its goroutine would not die
// with the "process" and would go on moving files under whoever reopens the
// directory.  A crash that finds a checkpoint half done is what the named
// crash positions of commit_test.go take, on a disk they can stop.
func crash(t *testing.T, p *Plane, disk interface{ Crash() }) {
	t.Helper()
	if err := p.WaitCheckpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	disk.Crash()
}

// script is the calls a test made on a plane, each with the journal's length
// once it returned, so that the plane's state at any LSN can be rebuilt: a
// fresh plane on a fresh disk, given the calls that had returned by then.
// It is what a crash is held to now that only promises are flushed before
// they are acknowledged: the recovered state is the state at the recovered
// LSN, which may be short of the live one by a tail of refusals, clock
// reports and completions.
type script struct {
	cfg   Config
	calls []scriptCall
}

type scriptCall struct {
	replay func(*Plane)
	lsn    uint64
}

// did notes a call p has just returned from; replay makes it again on a
// reference plane and must touch nothing else.
func (s *script) did(p *Plane, replay func(*Plane)) {
	s.calls = append(s.calls, scriptCall{replay, p.store.nextLSN() - 1})
}

// at rebuilds the state at lsn.  Calls that wrote nothing changed nothing,
// so it does not matter which side of lsn they fall on.
func (s *script) at(t *testing.T, lsn uint64) State {
	t.Helper()
	cfg := s.cfg
	cfg.FS, cfg.Dir = vfs.NewMem(), "ref"
	ref, _, err := OpenPlane(cfg)
	if err != nil {
		t.Fatalf("open reference plane: %v", err)
	}
	defer ref.Close()
	for _, c := range s.calls {
		if c.lsn <= lsn {
			c.replay(ref)
		}
	}
	st := ref.ExportState()
	if st.LSN != lsn {
		t.Fatalf("the calls noted up to lsn %d rebuild a journal of %d records", lsn, st.LSN)
	}
	return st
}

// cut forgets the calls whose records a crash took.
func (s *script) cut(lsn uint64) {
	for i, c := range s.calls {
		if c.lsn > lsn {
			s.calls = s.calls[:i]
			return
		}
	}
}

// The durable plane is one shard: OpenPlane refuses more.
func TestOpenPlaneRefusesShards(t *testing.T) {
	p, _, err := OpenPlane(Config{FS: vfs.NewMem(), Dir: "log", Procs: 16, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "2 shards") {
		t.Fatalf("OpenPlane at 2 shards returned %v, want an error that names the count", err)
	}
	if p != nil {
		t.Fatal("OpenPlane at 2 shards returned a plane")
	}
}

// dirFiles returns every file under dir by name, with its bytes.
func dirFiles(t *testing.T, fs vfs.FS, dir string) map[string][]byte {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := fs.Open(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if files[name], err = io.ReadAll(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return files
}

// A directory written in another format version is not a torn log: Open
// refuses it before writing anything, names the file and both versions,
// and leaves every file's bytes as they were.  A header cut short inside
// its version field is torn, and recovers as torn.
func TestOpenRefusesAnotherFormatVersion(t *testing.T) {
	// written is a closed plane's directory after five Figure-4 jobs, with
	// edit applied to each file's bytes.
	written := func(t *testing.T, edit func(name string, b []byte) []byte) *vfs.Mem {
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, StoreOptions{Sync: SyncAlways})
		if granted := drive(t, p.Observe, p.Negotiate, planeStream(5, 1)); len(granted) == 0 {
			t.Fatal("the stream granted nothing: the segment would hold no admit")
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		for name, b := range dirFiles(t, mem, "log") {
			f, err := mem.Create("log/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(edit(name, b)); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		return mem
	}
	bump := func(which func(string) bool) func(string, []byte) []byte {
		return func(name string, b []byte) []byte {
			if which(name) {
				binary.LittleEndian.PutUint32(b[8:12], formatVersion+1)
			}
			return b
		}
	}
	isSnap := func(name string) bool { return !IsSegment(name) }
	for _, tc := range []struct {
		name  string
		which func(string) bool
		named string // the file the error names: the first read of those bumped
	}{
		{"snapshot and segment", func(string) bool { return true }, snapName(0)},
		{"snapshot", isSnap, snapName(0)},
		{"segment", IsSegment, segName(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := written(t, bump(tc.which))
			before := dirFiles(t, mem, "log")
			p, _, err := OpenPlane(Config{FS: mem, Dir: "log", Procs: 16})
			if p != nil {
				p.Close()
				t.Fatal("Open recovered a directory in another format version")
			}
			want := fmt.Sprintf("log/%s is in format version %d, and this store reads only version %d",
				tc.named, formatVersion+1, formatVersion)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open returned %v, want an error containing %q", err, want)
			}
			if after := dirFiles(t, mem, "log"); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused Open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
	t.Run("header cut short", func(t *testing.T) {
		mem := written(t, func(name string, b []byte) []byte {
			if IsSegment(name) {
				return b[:len(walMagic)+2]
			}
			return b
		})
		p, rec, err := OpenPlane(Config{FS: mem, Dir: "log", Procs: 16})
		if err != nil {
			t.Fatalf("a segment header cut short refused the open: %v", err)
		}
		defer p.Close()
		if !rec.Torn || rec.State.LSN != 0 || len(rec.State.Grants) != 0 {
			t.Fatalf("recovered torn=%v lsn=%d grants=%d, want a torn log back at the genesis snapshot",
				rec.Torn, rec.State.LSN, len(rec.State.Grants))
		}
	})
}

// TestPlaneReopenIsExact: close and reopen at any point; the recovered
// plane must be bitwise-identical to the one that kept running, and must
// keep making identical decisions afterwards.
func TestPlaneReopenIsExact(t *testing.T) {
	for _, snapEvery := range []int{4, 1 << 20} {
		jobs := planeStream(300, 11)
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, StoreOptions{SnapshotEvery: snapEvery})
		ref, _, err := OpenPlane(Config{FS: vfs.NewMem(), Dir: "ref", Procs: 16,
			Store: StoreOptions{SnapshotEvery: snapEvery}})
		if err != nil {
			t.Fatal(err)
		}

		cut := 170
		drive(t, p.Observe, p.Negotiate, jobs[:cut])
		drive(t, ref.Observe, ref.Negotiate, jobs[:cut])
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		p2, rec := openPlane(t, mem, StoreOptions{SnapshotEvery: snapEvery})
		got := p2.ExportState()
		want := ref.ExportState()
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("snapEvery=%d: recovered state diverged: %v (recovery %+v)",
				snapEvery, err, rec)
		}

		// The recovered plane keeps deciding identically.
		gp := drive(t, p2.Observe, p2.Negotiate, jobs[cut:])
		gr := drive(t, ref.Observe, ref.Negotiate, jobs[cut:])
		if len(gp) != len(gr) {
			t.Fatalf("snapEvery=%d: post-recovery grants %d vs %d", snapEvery, len(gp), len(gr))
		}
		got, want = p2.ExportState(), ref.ExportState()
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("snapEvery=%d: post-recovery divergence: %v", snapEvery, err)
		}
	}
}

// TestPlaneCrashLosesNothingUnderSyncAlways: a hard crash (no Close) at any
// point keeps every acknowledged grant, and recovers the plane exactly as it
// stood at the LSN it recovered — no further back than the last grant.
func TestPlaneCrashLosesNothingUnderSyncAlways(t *testing.T) {
	jobs := planeStream(150, 13)
	for _, cut := range []int{150, 149, 97, 40} {
		mem := vfs.NewMem()
		opts := StoreOptions{Sync: SyncAlways, SnapshotEvery: 8}
		p, _ := openPlane(t, mem, opts)
		sc := script{cfg: Config{Procs: 16, Store: opts}}
		acked := map[int]float64{}
		var grantLSN uint64
		for _, job := range jobs[:cut] {
			p.Observe(job.Release)
			sc.did(p, func(q *Plane) { q.Observe(job.Release) })
			g, err := p.Negotiate(job)
			sc.did(p, func(q *Plane) { q.Negotiate(job) })
			if err == nil {
				acked[g.JobID], grantLSN = g.Finish(), p.store.nextLSN()-1
			} else if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("job %d: %v", job.ID, err)
			}
		}
		crash(t, p, mem)

		p2, _ := openPlane(t, mem, StoreOptions{})
		got := p2.ExportState()
		if got.LSN < grantLSN {
			t.Fatalf("cut=%d: recovered lsn %d, the last acknowledged grant is record %d", cut, got.LSN, grantLSN)
		}
		want := sc.at(t, got.LSN)
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("cut=%d: crash lost state under SyncAlways: %v", cut, err)
		}
		if lost := got.Lost(acked); len(lost) > 0 {
			t.Fatalf("cut=%d: acknowledged grants %v are gone at %v", cut, lost, got.Now)
		}
	}
}

// State.Lost names an acknowledged grant the state owes and does not hold:
// one still reserved past the clock and missing from the live set.  A
// finish exactly at the clock has run out, as it has for State.prune.
func TestStateLost(t *testing.T) {
	s := State{Now: 10, Grants: []GrantRecord{{JobID: 2}, {JobID: 5}, {JobID: 9}}}
	for name, tc := range map[string]struct {
		acked map[int]float64
		want  []int
	}{
		"finish at now has run out": {map[int]float64{3: 10}, nil},
		"finish before now":         {map[int]float64{3: 4}, nil},
		"live":                      {map[int]float64{2: 11, 5: 30, 9: 10.5}, nil},
		"missing":                   {map[int]float64{3: 11, 1: 10.25}, []int{1, 3}},
		"mixed, ascending":          {map[int]float64{8: 20, 5: 20, 4: 10, 6: 12}, []int{6, 8}},
		"not acked":                 {nil, nil}, // the live grants are nobody's concern
	} {
		if got := s.Lost(tc.acked); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Lost = %v, want %v", name, got, tc.want)
		}
	}
}

// TestPlaneCompletionSurvivesRecovery: a completion is acknowledged once
// written and rides the next promise's flush.  Flushed, the grant has left
// the live set durably; lost with the tail of the log, the grant is back,
// reserved until its time runs out, and the plane is the plane at that LSN.
func TestPlaneCompletionSurvivesRecovery(t *testing.T) {
	jobs := planeStream(40, 17)
	later := planeStream(41, 17)[40]
	for _, flushed := range []bool{true, false} {
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, StoreOptions{})
		sc := script{cfg: Config{Procs: 16}}
		for _, job := range jobs {
			p.Observe(job.Release)
			sc.did(p, func(q *Plane) { q.Observe(job.Release) })
			p.Negotiate(job)
			sc.did(p, func(q *Plane) { q.Negotiate(job) })
		}
		live := p.Grants()
		if len(live) == 0 {
			t.Fatal("no live grant to complete")
		}
		done, now := live[len(live)-1].JobID, p.Now()
		beforeLSN := p.ExportState().LSN
		if err := p.JobCompleted(done, now); err != nil {
			t.Fatal(err)
		}
		sc.did(p, func(q *Plane) { q.JobCompleted(done, now) })
		if flushed {
			later.Release = now // room for it now that done has left
			if _, err := p.Negotiate(later); err != nil {
				t.Fatalf("the grant whose flush the completion rides: %v", err)
			}
			sc.did(p, func(q *Plane) { q.Negotiate(later) })
		}
		crash(t, p, mem)

		p2, _ := openPlane(t, mem, StoreOptions{})
		got := p2.ExportState()
		want := sc.at(t, got.LSN)
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("flushed=%t: %v", flushed, err)
		}
		back := false
		for _, g := range got.Grants {
			back = back || g.JobID == done
		}
		switch {
		case flushed && back:
			t.Fatalf("completed job %d reappeared as a live grant after its record was flushed", done)
		case !flushed && (got.LSN > beforeLSN || !back):
			t.Fatalf("unflushed completion: recovered lsn %d (want at most %d), grant %d live again: %t", got.LSN, beforeLSN, done, back)
		}
	}
}

// TestShedderNeverResurrectsSheds is the shedder x recovery interlock:
// jobs refused by admission fairness are journaled as sheds and must
// never reappear as committed grants after crash recovery.
func TestShedderNeverResurrectsSheds(t *testing.T) {
	jobs := planeStream(250, 19)
	mem := vfs.NewMem()
	shed := &qos.ShedConfig{
		Capacity:    16,
		Horizon:     50,
		TenantQuota: map[string]float64{"": 0.2}, // the stream's one tenant, tightly: plenty of sheds
	}
	cfg := Config{
		FS: mem, Dir: "log", Procs: 16,
		Store: StoreOptions{SnapshotEvery: 16},
		Shed:  shed,
	}
	p, _, err := OpenPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := script{cfg: cfg}
	shedIDs := map[int]bool{}
	var lastGrantLSN uint64
	for _, job := range jobs {
		p.Observe(job.Release)
		sc.did(p, func(q *Plane) { q.Observe(job.Release) })
		_, err := p.Negotiate(job)
		sc.did(p, func(q *Plane) { q.Negotiate(job) })
		switch {
		case err == nil:
			lastGrantLSN = p.store.nextLSN() - 1
			if p.DurableLSN() < lastGrantLSN {
				t.Fatalf("grant %d acknowledged at lsn %d with the log durable to %d", job.ID, lastGrantLSN, p.DurableLSN())
			}
		case errors.Is(err, qos.ErrShed):
			shedIDs[job.ID] = true
		case errors.Is(err, qos.ErrRejected):
		default:
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	if len(shedIDs) == 0 {
		t.Fatal("workload produced no sheds; tighten the quota")
	}
	written := p.ExportState().LSN
	crash(t, p, mem)

	p2, rec, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shed: shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The crash may take the refusals and clock reports written since the
	// last grant, and nothing else.
	got := p2.ExportState()
	if got.LSN < lastGrantLSN || got.LSN > written {
		t.Fatalf("recovered lsn %d outside [last acknowledged grant %d, written %d]", got.LSN, lastGrantLSN, written)
	}
	want := sc.at(t, got.LSN)
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("recovery diverged from the plane at lsn %d: %v", got.LSN, err)
	}
	for _, g := range p2.Grants() {
		if shedIDs[g.JobID] {
			t.Fatalf("shed job %d reappeared as a committed grant after replay", g.JobID)
		}
	}
	if rec.Torn {
		t.Fatal("unexpected torn tail under SyncAlways")
	}
}

// TestPlanePoisonedRefusesDecisions: after an append failure the plane
// fails fast instead of diverging memory from log.
func TestPlanePoisonedRefusesDecisions(t *testing.T) {
	boom := errors.New("dead disk")
	ft := vfs.NewFault(vfs.NewMem())
	p, _ := openPlane(t, ft, StoreOptions{})
	jobs := planeStream(10, 23)
	drive(t, p.Observe, p.Negotiate, jobs[:3])

	ft.SetWriteError(boom, 0)
	var failedAt int
	for _, job := range jobs[3:] {
		if _, err := p.Negotiate(job); err != nil && !errors.Is(err, qos.ErrRejected) {
			failedAt = job.ID
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("no negotiate failed under write fault")
	}
	if p.Err() == nil {
		t.Fatal("plane not poisoned after append failure")
	}
	if _, err := p.Negotiate(jobs[len(jobs)-1]); err == nil || errors.Is(err, qos.ErrRejected) {
		t.Fatalf("poisoned plane kept deciding: %v", err)
	}
}

// TestPlaneLeaksNoDescriptor: vfs.OS opens bare descriptors, which no
// finalizer closes behind a leak, so the plane must close every file it
// opens — across checkpoints, a recovery, and a store a write error
// poisoned, however many times Close is called — and leave the process
// holding the descriptors it held before.
func TestPlaneLeaksNoDescriptor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	jobs := planeStream(40, 29)
	open := func(fs vfs.FS, dir string) *Plane {
		p, _, err := OpenPlane(Config{
			FS: fs, Dir: dir, Procs: 16,
			Store: StoreOptions{Sync: SyncAlways, SnapshotEvery: 1 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	closeAll := func(p *Plane) {
		for range 3 {
			p.Close()
		}
	}
	before := fds()

	dir := t.TempDir()
	p := open(vfs.OS{}, dir)
	for i := range 4 {
		drive(t, p.Observe, p.Negotiate, jobs[i*5:i*5+5])
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, p.Observe, p.Negotiate, jobs[20:25])
	closeAll(p)
	closeAll(open(vfs.OS{}, dir)) // recovery reads the snapshot and the log

	ft := vfs.NewFault(vfs.OS{})
	dir = t.TempDir()
	p = open(ft, dir)
	drive(t, p.Observe, p.Negotiate, jobs[25:30])
	ft.SetWriteError(errors.New("dead disk"), 0)
	for _, job := range jobs[30:] {
		p.Observe(job.Release)
		p.Negotiate(job)
	}
	if p.Err() == nil {
		t.Fatal("plane not poisoned by the write error")
	}
	if err := p.Snapshot(); err == nil {
		t.Fatal("a poisoned plane checkpointed")
	}
	closeAll(p)
	closeAll(open(vfs.OS{}, dir))

	if after := fds(); after != before {
		t.Fatalf("the process holds %d descriptors, %d before the planes opened", after, before)
	}
}

// TestPlaneMetricsPopulated: the durability instruments move.
func TestPlaneMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	mem := vfs.NewMem()
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16,
		Store: StoreOptions{SnapshotEvery: 8}, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p.Observe, p.Negotiate, planeStream(60, 29))
	if err := p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if met.Appends.Value() == 0 || met.Fsyncs.Value() == 0 {
		t.Fatalf("append instruments flat: appends=%d fsyncs=%d", met.Appends.Value(), met.Fsyncs.Value())
	}
	if met.Snapshots.Value() < 2 { // one at open, more from cadence
		t.Fatalf("snapshots = %d", met.Snapshots.Value())
	}
	if reg.Snapshot().Gauges["durable_snapshot_bytes"] <= 0 {
		t.Fatal("snapshot size gauge flat")
	}
	mem.Crash()
	if _, _, err := OpenPlane(Config{FS: mem, Dir: "log", Procs: 16, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.RecoveryRecords.Value() == 0 && met.Snapshots.Value() < 3 {
		t.Fatal("recovery instruments flat")
	}
}

// TestOneShardPlaneIsTracedAndTimed: a served admission has one timer, its
// phase record.  Over a real socket, granted and rejected: the latency
// waterfall is route, plan (the shard plans under its lock), reserve,
// journal and ack summing to the end-to-end time, and no probe; the span tree is the server's qosnet.negotiate arrival
// span over one child per phase that took time — stages route, plan,
// reserve, then journal and ack — laid end to end; and the two are the same
// numbers: each child lasts its phase's Durs entry, the children sum to the
// arrival span and to the exemplar's Total, to the nanosecond.  A request
// head sampling dropped is still timed, records no span and allocates what
// an untraced one does.
func TestOneShardPlaneIsTracedAndTimed(t *testing.T) {
	grantable := planeStream(1, 5)[0]
	// Wider than the machine: a valid job the plane refuses.
	tooWide := workload.FigureJob{X: 32, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(1, 0, workload.Tunable)
	for _, tc := range []struct {
		name       string
		job        core.Job
		rejected   bool
		sampledOut bool
	}{
		{"shards=1/granted", grantable, false, false},
		{"shards=1/rejected", tooWide, true, false},
		{"shards=1/sampled-out", tooWide, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := openPlane(t, vfs.NewMem(), StoreOptions{})
			defer p.Close()
			srv, err := qosnet.ListenAndServe(p, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tr := obs.NewTracer(64)
			if tc.sampledOut {
				tr.SetSampling(1e-9) // a budget no request fits
			}
			lp := latency.New(obs.NewRegistry())
			srv.Instrument(qosnet.Instruments{Tracer: tr, Latency: lp})
			cli, err := qosnet.Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			g, err := cli.Negotiate(tc.job)
			if errors.Is(err, qos.ErrRejected) != tc.rejected || (err != nil && !tc.rejected) {
				t.Fatalf("negotiate: %v (want rejected = %v)", err, tc.rejected)
			}

			ex := exemplars(t, lp)
			if len(ex) != 1 {
				t.Fatalf("%d latency exemplars, want 1", len(ex))
			}
			var sum int64
			for _, d := range ex[0].Durs {
				sum += d
			}
			d := ex[0].Durs
			if sum != ex[0].Total || d[phase.Probe] != 0 || d[phase.Plan] <= 0 || d[phase.Reserve] <= 0 || d[phase.Journal] <= 0 {
				t.Fatalf("waterfall %v does not read route/plan/reserve/journal/ack summing to %d", d, ex[0].Total)
			}

			if tc.sampledOut {
				if ex[0].Trace != 0 || len(tr.Spans()) != 0 {
					t.Fatalf("sampled-out request: exemplar trace %d, %d spans", ex[0].Trace, len(tr.Spans()))
				}
				perTrip := func() float64 {
					return testing.AllocsPerRun(100, func() { _, _ = cli.Negotiate(tc.job) })
				}
				srv.Instrument(qosnet.Instruments{Latency: lp})
				untraced := perTrip()
				srv.Instrument(qosnet.Instruments{Tracer: tr, Latency: lp})
				if got := perTrip(); got != untraced {
					t.Fatalf("a sampled-out round trip allocates %.0f, an untraced one %.0f", got, untraced)
				}
				return
			}

			trees := obs.BuildSpanTrees(tr.Spans())
			root := trees[obs.TraceID(ex[0].Trace)]
			if len(trees) != 1 || root == nil || root.Name != "qosnet.negotiate" || root.Stage != obs.StageArrival {
				t.Fatalf("span trees of one admission: %+v", tr.Spans())
			}
			for _, stage := range []string{obs.StageRoute, obs.StagePlan, obs.StageReserve, "journal"} {
				if root.FindStage(stage) == nil {
					t.Fatalf("no %s span under the arrival span: %+v", stage, tr.Spans())
				}
			}
			ns := func(n *obs.SpanNode) int64 { return int64(math.Round((n.End - n.Start) * 1e9)) }
			at, children := root.Start, int64(0)
			want := d
			byName := map[string]int{}
			for i, n := range phase.Names() {
				byName["admit."+n] = i
			}
			for _, c := range root.Children {
				ph, ok := byName[c.Name]
				if !ok || c.Start != at || ns(c) != want[ph] || want[ph] == 0 {
					t.Fatalf("child %s [%v, %v] is not phase durs %v laid end to end from %v", c.Name, c.Start, c.End, d, at)
				}
				want[ph] = 0 // every phase that took time exactly once
				at, children = c.End, children+ns(c)
			}
			if at != root.End || children != ns(root) || children != ex[0].Total || want != ([phase.Num]int64{}) {
				t.Fatalf("children sum to %d ending at %v; arrival span %d ending at %v; exemplar %d; unrendered %v",
					children, at, ns(root), root.End, ex[0].Total, want)
			}
			if tc.rejected {
				if root.Err == "" || root.Attrs != nil {
					t.Fatalf("rejected arrival span: %+v", root.SpanRec)
				}
			} else if root.Attrs["shard"] != float64(g.Shard) || root.Attrs["finish"] != g.Finish() || root.Err != "" || g.Trace != ex[0].Trace {
				t.Fatalf("granted arrival span %+v, grant shard %d finish %v trace %d", root.SpanRec, g.Shard, g.Finish(), g.Trace)
			}
		})
	}
}

// eagerGrants is the differential reference for the plane's lazy live set:
// the grant bookkeeping as it was kept before — a map from which every
// clock advance walks out the elapsed grants, eagerly.
type eagerGrants struct {
	now    float64
	grants map[int]GrantRecord
}

// observe advances the clock and returns the IDs that elapsed with it.
func (e *eagerGrants) observe(now float64) (elapsed []int) {
	if now <= e.now {
		return nil
	}
	e.now = now
	for id, g := range e.grants {
		if g.finish() <= now {
			delete(e.grants, id)
			elapsed = append(elapsed, id)
		}
	}
	return elapsed
}

func (e *eagerGrants) sorted() []GrantRecord {
	out := make([]GrantRecord, 0, len(e.grants))
	for _, g := range e.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// sameGrants is bit-for-bit equality of two sorted grant lists: every
// field (DeepEqual) and raw float bits (diffGrants).
func sameGrants(got, want []GrantRecord) error {
	if err := diffGrants(got, want); err != nil {
		return err
	}
	if len(got) > 0 && !reflect.DeepEqual(got, want) { // a decoded empty set is nil, an exported one is not
		return fmt.Errorf("grants differ outside the placement: got %+v want %+v", got, want)
	}
	return nil
}

// TestPlaneLazyLiveSetMatchesEagerReference drives a seeded mix of admits,
// clock reports, completions (of live grants, of grants that have already
// elapsed, of IDs never granted) and forced snapshots, and holds the plane
// to the eager reference: the same live set through Grants() and
// ExportState(), the same journal length (a completion of an elapsed grant
// writes nothing), the same state after crash + reopen.  With checkEvery 1
// the public readers run — and sweep the map — after every operation; with
// checkEvery 9 they run rarely, so elapsed entries stay in the map between
// sweeps and the readers that must not see them are exercised.
func TestPlaneLazyLiveSetMatchesEagerReference(t *testing.T) {
	for _, checkEvery := range []int{1, 9} {
		t.Run(fmt.Sprintf("shards=1/checkEvery=%d", checkEvery), func(t *testing.T) {
			lazyLiveSetDifferential(t, checkEvery)
		})
	}
}

func lazyLiveSetDifferential(t *testing.T, checkEvery int) {
	const ops = 600
	rng := rand.New(rand.NewSource(int64(41 + checkEvery)))
	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	mem := vfs.NewMem()
	opts := StoreOptions{SnapshotEvery: 32}
	p, _ := openPlane(t, mem, opts)

	sc := script{cfg: Config{Procs: 16, Store: opts}}
	ref := &eagerGrants{grants: map[int]GrantRecord{}}
	var (
		wantLSN    uint64
		grantLSN   uint64           // of the last acknowledged grant
		lostTail   int              // records crashes took: written, acknowledged, not yet flushed
		everLive   []int            // every ID ever granted: the pool completions draw from
		unswept    = map[int]bool{} // elapsed since the plane last walked its map
		folded     = map[int]bool{} // of those, elapsed at the last cadence seal's cut
		lazyHits   int              // completions that found an elapsed entry still in the map
		nextJob    int
		lastRecCnt int
	)
	// observe reports the clock to the reference and the plane alike.
	observe := func(now float64) {
		if now > ref.now {
			wantLSN++
		}
		for _, id := range ref.observe(now) {
			unswept[id] = true
		}
		p.Observe(now)
		sc.did(p, func(q *Plane) { q.Observe(now) })
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // admit, released a little after the clock (and reported first)
			job := tmpl.Job(nextJob, ref.now+rng.ExpFloat64()*4, workload.Tunable)
			nextJob++
			job.Tenant = []string{"", "acme", "globex"}[rng.Intn(3)]
			job.Class = rng.Intn(3)
			observe(job.Release)
			g, err := p.Negotiate(job)
			sc.did(p, func(q *Plane) { q.Negotiate(job) })
			wantLSN++ // admit or reject, one record either way
			if err != nil {
				if !errors.Is(err, qos.ErrRejected) {
					t.Fatalf("op %d: job %d: %v", op, job.ID, err)
				}
				break
			}
			ref.grants[g.JobID] = GrantRecord{
				JobID: g.JobID, Chain: g.Chain,
				Quality: g.Quality, Tunable: job.Tunable(),
				Tenant: job.Tenant, Class: job.Class,
				Tasks: append([]core.TaskPlacement(nil), g.Placement.Tasks...),
			}
			everLive = append(everLive, g.JobID)
			grantLSN = wantLSN
		case k < 6: // clock report on its own, sometimes stale
			now := ref.now + rng.Float64()*3 - 1
			if rng.Intn(3) == 0 { // exactly the next finish: the boundary of the live predicate
				next := math.Inf(1)
				for _, g := range ref.grants {
					next = min(next, g.finish())
				}
				if !math.IsInf(next, 1) {
					now = next
				}
			}
			observe(now)
		case k < 9: // completion: live, elapsed or unknown
			id := 1 << 20 // never granted
			switch pick := rng.Intn(8); {
			case pick < 2 && len(unswept) > 0: // elapsed, and the map may still hold it
				for u := range unswept {
					id = min(id, u)
				}
			case pick < 7 && len(everLive) > 0: // one of the latest grants: live or just elapsed
				id = everLive[len(everLive)-1-rng.Intn(min(16, len(everLive)))]
			}
			_, live := ref.grants[id]
			if _, mapped := p.grants[id]; mapped && !live {
				lazyHits++
			}
			if live {
				delete(ref.grants, id)
				wantLSN++
			}
			now := ref.now
			if err := p.JobCompleted(id, now); err != nil {
				t.Fatalf("op %d: complete %d: %v", op, id, err)
			}
			sc.did(p, func(q *Plane) { q.JobCompleted(id, now) })
		default:
			if err := p.Snapshot(); err != nil {
				t.Fatalf("op %d: snapshot: %v", op, err)
			}
			clear(unswept)
			clear(folded)
		}
		if p.store.recordsSinceSnap < lastRecCnt {
			// The cadence sealed a checkpoint inside this operation.  The
			// seal dropped what the checkpoint before it found elapsed at
			// its cut; what elapsed since, in this operation too, stays in
			// the map until this checkpoint's fold has found it and the
			// next seal collects it.
			for id := range folded {
				delete(unswept, id)
			}
			folded = maps.Clone(unswept)
		}
		lastRecCnt = p.store.recordsSinceSnap

		if got := p.store.nextLSN() - 1; got != wantLSN {
			t.Fatalf("op %d: journal holds %d records, the eager plane's rule gives %d", op, got, wantLSN)
		}
		if len(p.grants) > len(ref.grants)+len(unswept) {
			t.Fatalf("op %d: map holds %d grants, more than %d live + %d elapsed since the last sweep",
				op, len(p.grants), len(ref.grants), len(unswept))
		}
		for id := range ref.grants {
			if _, ok := p.liveGrant(id); !ok {
				t.Fatalf("op %d: live grant %d not visible", op, id)
			}
		}

		if op%checkEvery == 0 {
			want := ref.sorted()
			if err := sameGrants(p.Grants(), want); err != nil {
				t.Fatalf("op %d: Grants(): %v", op, err)
			}
			st := p.ExportState()
			clear(unswept)
			clear(folded)
			if st.LSN != wantLSN || fb(st.Now) != fb(ref.now) {
				t.Fatalf("op %d: export at lsn=%d now=%v, want lsn=%d now=%v", op, st.LSN, st.Now, wantLSN, ref.now)
			}
			if err := sameGrants(st.Grants, want); err != nil {
				t.Fatalf("op %d: ExportState(): %v", op, err)
			}
		}

		if op%50 == 49 {
			want := p.ExportState()
			if err := sameGrants(want.Grants, ref.sorted()); err != nil {
				t.Fatalf("op %d: pre-crash export: %v", op, err)
			}
			crash(t, p, mem)
			var rec Recovered
			p, rec = openPlane(t, mem, opts)
			// What was written since the last grant was acknowledged without
			// a flush and may be gone; the recovered plane is the plane as
			// it stood at the LSN it recovered, bit for bit.
			m := rec.State.LSN
			if m < grantLSN || m > wantLSN {
				t.Fatalf("op %d: recovered lsn %d outside [last acknowledged grant %d, written %d]", op, m, grantLSN, wantLSN)
			}
			want = sc.at(t, m)
			if err := DiffStates(&rec.State, &want); err != nil {
				t.Fatalf("op %d: recovered state != the plane at lsn %d: %v", op, m, err)
			}
			if err := sameGrants(rec.State.Grants, want.Grants); err != nil {
				t.Fatalf("op %d: recovered grants: %v", op, err)
			}
			// The test goes on from what survived.
			lostTail += int(wantLSN - m)
			sc.cut(m)
			wantLSN, ref.now = m, rec.State.Now
			clear(ref.grants)
			for _, g := range rec.State.Grants {
				ref.grants[g.JobID] = g
			}
			clear(unswept)
			clear(folded)
			lastRecCnt = p.store.recordsSinceSnap
		}
	}
	t.Logf("%d ops: %d grants, %d records, %d completions met an unswept elapsed entry, crashes took %d unflushed records",
		ops, len(everLive), wantLSN, lazyHits, lostTail)
	if lostTail == 0 {
		t.Fatal("no crash ever followed an unflushed refusal, clock report or completion: recovery to a shorter log went untested")
	}
	if len(everLive) < ops/8 {
		t.Fatalf("only %d grants in %d ops: the stream does not exercise the live set", len(everLive), ops)
	}
	if checkEvery > 1 && lazyHits == 0 {
		t.Fatal("no completion ever met an elapsed entry still in the map: the lazy path went untested")
	}
}

// exemplars reads the latency plane's tail exemplars off its /latency view.
func exemplars(t *testing.T, lp *latency.Plane) []latency.Exemplar {
	t.Helper()
	rw := httptest.NewRecorder()
	lp.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/latency", nil))
	var v struct {
		Exemplars []latency.Exemplar `json:"exemplars"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v.Exemplars
}

// TestOverlongTenantIsRefusedBeforeDeciding: the journal carries at most
// frame.MaxString bytes of a tenant, so a grant to a longer one would come
// back from recovery under another name.  The plane refuses such a job
// before deciding, with or without a shedder: nothing is journaled, the
// store stays healthy, and what a reopen recovers is what the live plane
// holds.
func TestOverlongTenantIsRefusedBeforeDeciding(t *testing.T) {
	for _, shed := range []bool{false, true} {
		t.Run(fmt.Sprintf("shed=%v", shed), func(t *testing.T) {
			mem := vfs.NewMem()
			cfg := Config{FS: mem, Dir: "log", Procs: 16, Store: StoreOptions{Sync: SyncAlways}}
			if shed {
				cfg.Shed = &qos.ShedConfig{Capacity: 16}
			}
			p, _, err := OpenPlane(cfg)
			if err != nil {
				t.Fatal(err)
			}
			job := planeStream(1, 3)[0]
			p.Observe(job.Release)
			before := p.ExportState()
			job.Tenant = strings.Repeat("t", 5000)
			if g, err := p.Negotiate(job); err == nil || errors.Is(err, qos.ErrRejected) {
				t.Fatalf("a %d-byte tenant got grant %v, err %v; want a refusal before deciding", len(job.Tenant), g, err)
			}
			if err := p.Err(); err != nil {
				t.Fatalf("the refusal poisoned the store: %v", err)
			}
			if after := p.ExportState(); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refusal changed the plane:\nbefore %+v\nafter  %+v", before, after)
			}
			job.Tenant = strings.Repeat("t", frame.MaxString)
			if _, err := p.Negotiate(job); err != nil {
				t.Fatalf("a %d-byte tenant: %v", len(job.Tenant), err)
			}
			live := p.ExportState()
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			mem.Crash()
			q, _, err := OpenPlane(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			// The planner's work counters are diagnostics a reopen does
			// not rebuild; the grants are what recovery promises.
			if got := q.ExportState(); got.LSN != live.LSN || !reflect.DeepEqual(got.Grants, live.Grants) {
				t.Fatalf("recovered %d grants at lsn %d, the live plane holds %d at lsn %d",
					len(got.Grants), got.LSN, len(live.Grants), live.LSN)
			}
		})
	}
}
