package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/frame"
)

// File format constants.  Segment files are named wal-%016x.log by their
// first LSN; snapshot files snap-%016x.snap by the last LSN they cover.
const (
	walMagic      = "MLNWAL01"
	snapMagic     = "MLNSNP01"
	formatVersion = 1
)

// SyncPolicy selects which written records wait for an fsync before they
// are acknowledged.
type SyncPolicy int

const (
	// SyncAlways flushes every promise (see Write) before it is
	// acknowledged: no acknowledged grant can be lost by an honest disk.
	// The default, and the only policy under which the crash-loop
	// differential guarantees zero loss.
	SyncAlways SyncPolicy = iota
	// SyncEveryN flushes once the log is N records (StoreOptions.SyncEvery)
	// ahead of stable storage, whatever their kind; a crash may lose up to
	// N-1 acknowledged records.
	SyncEveryN
	// SyncNever leaves syncing to the operating system; a crash may lose
	// any unsynced tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEveryN:
		return "every-n"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "every-n":
		return SyncEveryN, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("durable: unknown sync policy %q (want always, every-n or never)", s)
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the append count between fsyncs under SyncEveryN
	// (default 16).
	SyncEvery int
	// SnapshotEvery is the record count between snapshots suggested by
	// ShouldSnapshot; 0 (default 4096) snapshots are still only taken
	// when the caller asks.
	SnapshotEvery int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Recovered reports what Open reconstructed.
type Recovered struct {
	// State is the fully replayed state: newest valid snapshot plus every
	// contiguous, checksum-clean log record after it.
	State State
	// SnapshotLSN is the LSN of the snapshot recovery started from
	// (0 = genesis, no usable snapshot).
	SnapshotLSN uint64
	// Records is the number of log records replayed on top of it.
	Records int
	// Torn reports whether recovery stopped at a torn or corrupt log
	// tail (everything before the tear is recovered; nothing after is).
	Torn bool
	// ReplayDuration is the wall-clock time spent replaying records.
	ReplayDuration time.Duration
}

// Store is the durable admission plane's log: an append-only sequence of
// checksummed records in rotated segment files, compacted by snapshots.
//
// An append has two halves under two locks.  Write is single-writer: the
// owning plane calls it under its own lock, so log order is decision order.
// SyncTo is what an acknowledgment waits in, after the plane lock is gone:
// flushMu admits one flusher at a time, its flush covers every record
// written before it started, and whoever waited behind it finds its record
// already durable.  Snapshots and Close run under both locks.
//
// Write and sync errors poison the store: once either fails, the in-memory
// state may be ahead of the durable state, so every later operation fails
// fast with the original error and the operator must reopen (re-running
// recovery) to continue.
type Store struct {
	fs   vfs.FS
	dir  string
	opts StoreOptions
	core *core.Options
	met  *Metrics

	// The writer's side, under the plane lock.  frame is Write's scratch:
	// one record's header and payload, built in place and written at once;
	// safe to reuse because vfs.File.Write does not retain its argument.
	segName          string
	recordsSinceSnap int
	frame            []byte

	// flushMu serializes flushes with each other and with the segment swap
	// of a snapshot; seg is written only under it and the plane lock both,
	// so either lock is enough to read it.
	flushMu sync.Mutex
	seg     vfs.File

	written    atomic.Uint64 // LSN of the last record in the segment
	durableLSN atomic.Uint64 // LSN of the last record known flushed
	poisoned   atomic.Pointer[error]
}

// OpenConfig configures Open.
type OpenConfig struct {
	// FS is the filesystem seam (vfs.OS{} for production).
	FS vfs.FS
	// Dir is the log directory; created if absent.
	Dir string
	// Genesis is the plane's empty state, used when the directory holds
	// no usable snapshot (see Genesis).
	Genesis State
	// Options is the scheduler policy used to rebuild shards for replay.
	Options *core.Options
	// Store holds the log's own tuning.
	Store StoreOptions
	// Metrics, when non-nil, receives durability instrumentation.
	Metrics *Metrics
}

func segName(first uint64) string { return fileName("wal-", first, ".log") }
func snapName(lsn uint64) string  { return fileName("snap-", lsn, ".snap") }

// fileName is prefix + v as exactly 16 lower-case hex digits + suffix.
// strconv rather than fmt: a snapshot names and parses a handful of files,
// and fmt's pooled scratch made that cost an allocation count that moved
// from run to run.
func fileName(prefix string, v uint64, suffix string) string {
	var hex [16]byte
	digits := strconv.AppendUint(hex[:0], v, 16)
	b := make([]byte, 0, len(prefix)+len(hex)+len(suffix))
	b = append(b, prefix...)
	b = append(b, "0000000000000000"[len(digits):]...)
	b = append(b, digits...)
	b = append(b, suffix...)
	return string(b)
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(prefix)+16], 16, 64)
	return v, err == nil
}

// Open recovers the durable state from dir and returns a store positioned
// to append after it.  Recovery is idempotent: Open rewrites a fresh
// snapshot of the recovered state and truncates the log, so a crash at any
// point — including during Open itself — recovers to the same state.
func Open(cfg OpenConfig) (*Store, Recovered, error) {
	if cfg.FS == nil || cfg.Dir == "" {
		return nil, Recovered{}, fmt.Errorf("durable: open needs an FS and a directory")
	}
	if len(cfg.Genesis.Shards) == 0 {
		return nil, Recovered{}, fmt.Errorf("durable: open needs a genesis state (see Genesis)")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: create log dir: %w", err)
	}
	s := &Store{fs: cfg.FS, dir: cfg.Dir, opts: cfg.Store.withDefaults(), core: cfg.Options, met: cfg.Metrics}

	base, snapLSN, recs, torn, err := s.load(cfg.Genesis)
	if err != nil {
		return nil, Recovered{}, err
	}
	replayStart := time.Now()
	st, err := replayState(base, recs, cfg.Options)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: replay: %w", err)
	}
	rec := Recovered{
		State:          st,
		SnapshotLSN:    snapLSN,
		Records:        len(recs),
		Torn:           torn,
		ReplayDuration: time.Since(replayStart),
	}
	if s.met != nil {
		s.met.RecoveryReplay.Observe(rec.ReplayDuration.Seconds())
		s.met.RecoveryRecords.Add(int64(len(recs)))
		if torn {
			s.met.TornTails.Inc()
		}
	}

	// Make recovery the new ground truth: snapshot the recovered state,
	// drop everything else, start a fresh segment.  Until the snapshot's
	// SyncDir lands, the old snapshot+log remain the durable prefix and a
	// crash replays to the identical state.
	s.written.Store(st.LSN)
	snapSt := st
	snapSt.Shards = append([]core.SchedulerState(nil), st.Shards...)
	snapSt.Grants = append([]GrantRecord(nil), st.Grants...)
	if err := s.compactTo(&snapSt); err != nil {
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// load finds the newest valid snapshot and the contiguous record run after
// it.  A torn or corrupt frame, an LSN gap, or a bad segment header ends
// the run: the durable prefix property says everything before is state,
// everything after is noise.
func (s *Store) load(genesis State) (base State, snapLSN uint64, recs []Record, torn bool, err error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return State{}, 0, nil, false, fmt.Errorf("durable: read log dir: %w", err)
	}
	var snaps, segs []uint64
	for _, name := range names {
		if v, ok := parseName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseName(name, "wal-", ".log"); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	base = genesis
	for _, lsn := range snaps {
		st, serr := s.readSnapshot(filepath.Join(s.dir, snapName(lsn)))
		if serr != nil || st.LSN != lsn {
			continue // corrupt or half-written snapshot: fall back to an older one
		}
		base, snapLSN = st, lsn
		break
	}

	expect := base.LSN + 1
	for _, first := range segs {
		data, serr := s.readFile(filepath.Join(s.dir, segName(first)))
		if serr != nil {
			torn = true
			break
		}
		r := bytes.NewReader(data)
		hdrFirst, serr := readSegHeader(r)
		if serr != nil || hdrFirst != first {
			torn = true
			break
		}
		if first > expect {
			torn = true // gap between segments: a whole segment is missing
			break
		}
		bad := false
		fr := frame.NewReader(r, "durable", maxFramePayload)
		for {
			payload, ferr := fr.Next()
			if ferr == io.EOF {
				break
			}
			if ferr != nil {
				torn, bad = true, true
				break
			}
			rec, derr := DecodeRecord(payload)
			if derr != nil {
				torn, bad = true, true
				break
			}
			if rec.LSN < expect {
				continue // already covered by the snapshot or a prior segment
			}
			if rec.LSN > expect {
				torn, bad = true, true
				break
			}
			recs = append(recs, rec)
			expect++
		}
		if bad {
			break
		}
	}
	return base, snapLSN, recs, torn, nil
}

func (s *Store) readFile(path string) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

func (s *Store) readSnapshot(path string) (State, error) {
	data, err := s.readFile(path)
	if err != nil {
		return State{}, err
	}
	r := bytes.NewReader(data)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return State{}, fmt.Errorf("durable: truncated snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return State{}, fmt.Errorf("durable: bad snapshot magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		return State{}, fmt.Errorf("durable: snapshot format version %d (want %d)", v, formatVersion)
	}
	fr := frame.NewReader(r, "durable", maxFramePayload)
	payload, err := fr.Next()
	if err != nil {
		return State{}, err
	}
	st, err := DecodeSnapshot(payload)
	if err != nil {
		return State{}, err
	}
	if _, err := fr.Next(); err != io.EOF {
		return State{}, fmt.Errorf("durable: trailing bytes after snapshot frame")
	}
	return st, nil
}

func readSegHeader(r io.Reader) (uint64, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: truncated segment header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("durable: bad segment magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		return 0, fmt.Errorf("durable: segment format version %d (want %d)", v, formatVersion)
	}
	return binary.LittleEndian.Uint64(hdr[12:20]), nil
}

func writeSegHeader(f vfs.File, first uint64) error {
	var hdr [20]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], first)
	_, err := f.Write(hdr[:])
	return err
}

// compactTo writes st as the newest snapshot, rotates to a fresh segment
// starting after it and deletes every older file.  Crash-safe: the new
// snapshot is written to a temp name, synced, renamed into place and made
// durable by SyncDir before anything old is removed.  It holds the flush
// lock throughout, so no flush ever syncs a segment being swapped out, and
// whoever waited in SyncTo meanwhile finds the snapshot has covered it.
func (s *Store) compactTo(st *State) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	start := time.Now()
	st.Prune()
	payload := EncodeSnapshot(st)
	name := snapName(st.LSN)
	tmp := name + ".tmp"
	f, err := s.fs.Create(filepath.Join(s.dir, tmp))
	if err != nil {
		return s.poison(fmt.Errorf("durable: create snapshot: %w", err))
	}
	var hdr [12]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: write snapshot: %w", err))
	}
	n, err := frame.Write(f, payload)
	if err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return s.poison(fmt.Errorf("durable: close snapshot: %w", err))
	}
	if err := s.fs.Rename(filepath.Join(s.dir, tmp), filepath.Join(s.dir, name)); err != nil {
		return s.poison(fmt.Errorf("durable: publish snapshot: %w", err))
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.poison(fmt.Errorf("durable: sync log dir: %w", err))
	}

	// The snapshot is durable, and with it every record it covers;
	// everything older is now garbage.
	s.durableLSN.Store(st.LSN)
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return s.poison(fmt.Errorf("durable: read log dir: %w", err))
	}
	for _, old := range names {
		if old == name {
			continue
		}
		if _, ok := parseName(old, "snap-", ".snap"); ok {
			s.fs.Remove(filepath.Join(s.dir, old))
			continue
		}
		if _, ok := parseName(old, "wal-", ".log"); ok {
			s.fs.Remove(filepath.Join(s.dir, old))
			continue
		}
		if filepath.Ext(old) == ".tmp" {
			s.fs.Remove(filepath.Join(s.dir, old))
		}
	}

	// Fresh segment for the records after the snapshot.
	s.segName = filepath.Join(s.dir, segName(st.LSN+1))
	seg, err := s.fs.Create(s.segName)
	if err != nil {
		return s.poison(fmt.Errorf("durable: create segment: %w", err))
	}
	if err := writeSegHeader(seg, st.LSN+1); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: write segment header: %w", err))
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: sync segment: %w", err))
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: sync log dir: %w", err))
	}
	s.seg = seg
	s.recordsSinceSnap = 0
	if s.met != nil {
		s.met.SnapshotBytes.Set(float64(12 + n))
		s.met.SnapshotDuration.Observe(time.Since(start).Seconds())
		s.met.Snapshots.Inc()
	}
	return nil
}

func (s *Store) poison(err error) error {
	if s.poisoned.CompareAndSwap(nil, &err) && s.met != nil {
		s.met.Poisoned.Set(1)
	}
	return err
}

// Poisoned returns the first write, sync or snapshot error, or nil.  A
// poisoned store refuses all further writes; reopen to recover.
func (s *Store) Poisoned() error {
	if err := s.poisoned.Load(); err != nil {
		return *err
	}
	return nil
}

// refused is Poisoned as a write or a flush reports it.
func (s *Store) refused() error {
	if err := s.Poisoned(); err != nil {
		return fmt.Errorf("durable: store poisoned by earlier error: %w", err)
	}
	return nil
}

// Write is the first half of an append, for the one writer the plane lock
// admits: it assigns the record the next LSN and writes its frame — header
// and payload in a single Write, so a record is one syscall on vfs.OS.  It
// does not flush.  wait is the LSN the caller must SyncTo, once it has let
// the next writer in, before it acknowledges the record; 0 when the sync
// policy lets the record ride on a later flush: under SyncAlways everything
// but a promise — a record that binds the plane to something a recovered
// plane must still honour — and under SyncEveryN everything until the log
// is SyncEvery records ahead of the disk.  On failure the store is poisoned
// and the caller must not acknowledge.
func (s *Store) Write(r *Record, promise bool) (wait uint64, err error) {
	if err := s.refused(); err != nil {
		return 0, err
	}
	start := time.Now()
	r.LSN = s.written.Load() + 1
	buf := append(s.frame[:0], make([]byte, frame.HeaderLen)...) // header, filled in once the payload is behind it
	buf = appendRecord(buf, r)
	frame.PutHeader(buf[:frame.HeaderLen], buf[frame.HeaderLen:])
	s.frame = buf
	if _, err := s.seg.Write(buf); err != nil {
		return 0, s.poison(fmt.Errorf("durable: append %s record: %w", r.Kind, err))
	}
	s.written.Store(r.LSN)
	s.recordsSinceSnap++
	if s.met != nil {
		s.met.Appends.Inc()
		s.met.AppendLatency.Observe(time.Since(start).Seconds())
	}
	switch s.opts.Sync {
	case SyncAlways:
		if promise {
			wait = r.LSN
		}
	case SyncEveryN:
		if r.LSN-s.durableLSN.Load() >= uint64(s.opts.SyncEvery) {
			wait = r.LSN
		}
	}
	return wait, nil
}

// SyncTo is the second half: it returns once the record Write numbered lsn
// is on stable storage.  One caller at a time flushes; its flush covers
// every record written before it started, so a caller that waited behind
// it, or behind a snapshot, usually finds its own record durable and
// returns without touching the disk.  On failure the store is poisoned and
// the caller must not acknowledge.
func (s *Store) SyncTo(lsn uint64) error {
	if s.durableLSN.Load() >= lsn {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.durableLSN.Load() >= lsn {
		return nil
	}
	return s.flushLocked()
}

// flushLocked syncs the segment and publishes what that made durable.
func (s *Store) flushLocked() error {
	if err := s.refused(); err != nil {
		return err
	}
	through := s.written.Load() // read first: the sync covers at least this
	if err := s.seg.Sync(); err != nil {
		return s.poison(fmt.Errorf("durable: sync log through lsn %d: %w", through, err))
	}
	s.durableLSN.Store(through)
	if s.met != nil {
		s.met.Fsyncs.Inc()
	}
	return nil
}

// Append is both halves back to back: the record is written, and flushed
// if it must be, before Append returns.  For a writer that cannot let go
// of the plane lock in between; every record counts as a promise.
func (s *Store) Append(r *Record) (uint64, error) {
	wait, err := s.Write(r, true)
	if err == nil && wait != 0 {
		err = s.SyncTo(wait)
	}
	if err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// WriteSnapshot compacts the log to st, which must cover every written
// record (st.LSN == last assigned LSN) — the plane guarantees this by
// snapshotting under its own write lock.
func (s *Store) WriteSnapshot(st *State) error {
	if err := s.refused(); err != nil {
		return err
	}
	if head := s.written.Load(); st.LSN != head {
		return fmt.Errorf("durable: snapshot at LSN %d does not cover the log head %d", st.LSN, head)
	}
	return s.compactTo(st)
}

// ShouldSnapshot reports whether enough records accumulated since the last
// snapshot to warrant another (per StoreOptions.SnapshotEvery).
func (s *Store) ShouldSnapshot() bool { return s.recordsSinceSnap >= s.opts.SnapshotEvery }

// NextLSN returns the LSN the next write will receive.
func (s *Store) NextLSN() uint64 { return s.written.Load() + 1 }

// DurableLSN returns the highest LSN known synced to stable storage.
func (s *Store) DurableLSN() uint64 { return s.durableLSN.Load() }

// Close flushes what was written and not yet flushed — under SyncAlways the
// refusals, clock reports and completions since the last promise, under
// SyncEveryN the tail short of N — and closes the open segment, so a clean
// stop leaves nothing riding.  SyncNever stays the operating system's
// business.
func (s *Store) Close() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.seg == nil {
		return nil
	}
	var err error
	if s.opts.Sync != SyncNever && s.Poisoned() == nil && s.durableLSN.Load() < s.written.Load() {
		err = s.flushLocked()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	return err
}

// replayState rebuilds schedulers from base and applies recs in log order,
// returning the resulting state.  Replay applies committed decisions
// verbatim — it never re-plans — so the result is bit-exact.
func replayState(base State, recs []Record, opts *core.Options) (State, error) {
	scheds := make([]*core.Scheduler, len(base.Shards))
	for i, sh := range base.Shards {
		sc := core.NewScheduler(max(sh.Profile.Capacity, 1), 0, opts)
		if err := sc.RestoreState(sh); err != nil {
			return State{}, fmt.Errorf("shard %d: %w", i, err)
		}
		scheds[i] = sc
	}
	st := State{
		LSN:    base.LSN,
		Now:    base.Now,
		Grants: append([]GrantRecord(nil), base.Grants...),
	}
	for i := range recs {
		if err := applyRecord(&st, scheds, &recs[i]); err != nil {
			return State{}, fmt.Errorf("record lsn=%d kind=%s: %w", recs[i].LSN, recs[i].Kind, err)
		}
		st.LSN = recs[i].LSN
	}
	st.Shards = make([]core.SchedulerState, len(scheds))
	for i, sc := range scheds {
		st.Shards[i] = sc.ExportState()
	}
	// Mirror the live plane, which drops elapsed grants as its clock
	// advances: prune by the final recovered clock.
	st.Prune()
	return st, nil
}

func applyRecord(st *State, scheds []*core.Scheduler, r *Record) error {
	shardOK := func() error {
		if r.Shard < 0 || r.Shard >= len(scheds) {
			return fmt.Errorf("shard %d out of range (%d shards)", r.Shard, len(scheds))
		}
		return nil
	}
	switch r.Kind {
	case KindObserve:
		if r.Now > st.Now {
			for _, sc := range scheds {
				sc.Observe(r.Now)
			}
			st.Now = r.Now
		}
	case KindCapacity:
		if err := shardOK(); err != nil {
			return err
		}
		if err := scheds[r.Shard].SetCapacity(r.Procs); err != nil {
			return err
		}
	case KindAdmit, KindRenegotiate:
		if err := shardOK(); err != nil {
			return err
		}
		pl := &core.Placement{JobID: r.JobID, Chain: r.Chain, Tasks: r.Tasks}
		if err := scheds[r.Shard].ReplayCommit(pl, r.Quality, r.Tunable); err != nil {
			return err
		}
		g := GrantRecord{
			JobID: r.JobID, Shard: r.Shard, Chain: r.Chain,
			Quality: r.Quality, Tunable: r.Tunable,
			Tenant: r.Tenant, Class: r.Class,
			Tasks: append([]core.TaskPlacement(nil), r.Tasks...),
		}
		if r.Kind == KindRenegotiate {
			for i := range st.Grants {
				if st.Grants[i].JobID == r.JobID {
					st.Grants[i] = g
					return nil
				}
			}
		}
		st.Grants = append(st.Grants, g)
	case KindReject:
		if err := shardOK(); err != nil {
			return err
		}
		scheds[r.Shard].ReplayRejected()
	case KindShed:
		// Shed jobs never touched a scheduler; the record exists so
		// recovery can prove they did not reappear as grants.
	case KindComplete:
		for i := range st.Grants {
			if st.Grants[i].JobID == r.JobID {
				st.Grants = append(st.Grants[:i], st.Grants[i+1:]...)
				break
			}
		}
	default:
		return fmt.Errorf("unknown kind %d", uint8(r.Kind))
	}
	return nil
}
