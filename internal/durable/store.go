package durable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	// snapHeaderLen is a snapshot file's header: the magic, then the
	// format version as a u32.
	snapHeaderLen = len(snapMagic) + 4
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
	// syncNever leaves syncing to the operating system; a crash may lose
	// any unsynced tail.
	syncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEveryN:
		return "every-n"
	case syncNever:
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
		return syncNever, nil
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
	// shouldSnapshot; 0 (default 4096) snapshots are still only taken
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

// store is the durable admission plane's log: an append-only sequence of
// checksummed records in rotated segment files, compacted by checkpoints.
//
// An append has two halves under two locks.  Write is single-writer: the
// owning plane calls it under its own lock, so log order is decision order.
// syncTo is what an acknowledgment waits in, after the plane lock is gone:
// up to two flushes run at once, each covers every record written before it
// started, and whoever waited behind them finds its record already durable.
// flushMu is bookkeeping only — tickets, the running flushes' reach, the
// duties a seal left — and is never held across a sync.
//
// A checkpoint has two halves too.  seal, under the plane lock, takes the
// cut and swaps a fresh segment in as the open one (the swap alone holds
// flushMu); one goroutine per checkpoint then folds the grant set as of the
// cut, writes and publishes the snapshot and removes what it covers, behind
// the writer and the flushers.  One checkpoint is in flight at a time and
// Close waits for it, and for the flushes.  Three rules stand where both
// locks used to be held throughout:
//
//   - durableLSN never passes a record whose segment's bytes and directory
//     entry are not both on stable storage, and flushes publish in the order
//     they started: the first flush after a seal syncs the sealed segment's
//     tail, then the open segment, then the directory, and a flush publishes
//     only after every flush started before it has — so none publishes on
//     the strength of a sync an earlier one has yet to finish, or one that
//     failed;
//   - a snapshot is published — renamed into place and the directory synced
//     — before anything it covers is removed, and only then does durableLSN
//     rise to its LSN;
//   - durableLSN only rises, whoever raises it (a flush or a publication).
//
// Write, sync and checkpoint errors poison the store: once one fails, the
// in-memory state may be ahead of the durable state, so every later
// operation fails fast with the original error and the operator must reopen
// (re-running recovery) to continue.
type store struct {
	fs   vfs.FS
	dir  string
	opts StoreOptions
	met  *Metrics

	// dirPrefix is what filepath.Join(dir, name) puts before any plain file
	// name, so a path is built in one allocation (fileName).
	dirPrefix string

	// The writer's side, under the plane lock.  frame is Write's scratch:
	// one record's header and payload, built in place and written at once,
	// and rotate's segment header; safe to reuse because vfs.File.Write does
	// not retain its argument.
	segName          string
	recordsSinceSnap int
	frame            []byte

	// ckpt is the last checkpoint started, under the plane lock;
	// checkpointer is runCheckpoint as a func value, made once, so that
	// starting its goroutine allocates nothing.  base is the grant list the
	// last fold left — live at its cut, sorted by job ID — and spare the
	// list before that, the next fold's output buffer; order is the fold's
	// scratch, elapsed the list it fills for the plane, handed back by the
	// plane's collection (nil while the plane holds it), and encoded the
	// snapshot file's bytes.  snap is the path of the last snapshot
	// published, and leftovers what open's listing of the directory found
	// that its checkpoint does not write anew.  All but ckpt and
	// checkpointer belong to the checkpoint goroutine while it runs.
	// Between checkpoints the buffers stay with the store, so one costs no
	// allocation unless the state has outgrown every earlier one.
	ckpt           *checkpoint
	checkpointer   func()
	base, spare    []GrantRecord
	order, elapsed []int
	encoded        []byte
	snap           string
	leftovers      []string

	// flushMu guards what follows, and flushDone on it wakes whoever waits
	// for a flush to publish.  seg is written only under it and the plane
	// lock both, so either lock is enough to read it.  sealed is the segment
	// the last seal swapped out, held until a flush has synced its tail or
	// its checkpoint is published; dirDirty says the open segment's
	// directory entry is not yet known to be on stable storage.  started and
	// published count flushes, so their difference is the number running;
	// reach is what the last one started covers.
	flushMu                   sync.Mutex
	flushDone                 sync.Cond
	seg                       vfs.File
	sealed                    vfs.File
	dirDirty                  bool
	started, published, reach uint64

	written    atomic.Uint64 // LSN of the last record in the segment
	durableLSN atomic.Uint64 // LSN of the last record known flushed
	poisoned   atomic.Pointer[error]
}

// openConfig configures Open.
type openConfig struct {
	// FS is the filesystem seam (vfs.OS{} for production).
	FS vfs.FS
	// Dir is the log directory; created if absent.
	Dir string
	// Genesis is the plane's empty state, used when the directory holds
	// no usable snapshot (see Genesis).
	Genesis State
	// Store holds the log's own tuning.
	Store StoreOptions
	// Metrics, when non-nil, receives durability instrumentation.
	Metrics *Metrics
}

func segName(first uint64) string { return fileName("", "wal-", first, ".log") }
func snapName(lsn uint64) string  { return fileName("", "snap-", lsn, ".snap") }

// fileName is dir + prefix + v as exactly 16 lower-case hex digits + suffix,
// in one allocation.  strconv rather than fmt: a snapshot names and parses a
// handful of files, and fmt's pooled scratch made that cost an allocation
// count that moved from run to run.
func fileName(dir, prefix string, v uint64, suffix string) string {
	var hex [16]byte
	digits := strconv.AppendUint(hex[:0], v, 16)
	var b strings.Builder
	b.Grow(len(dir) + len(prefix) + len(hex) + len(suffix))
	b.WriteString(dir)
	b.WriteString(prefix)
	b.WriteString("0000000000000000"[len(digits):])
	b.Write(digits)
	b.WriteString(suffix)
	return b.String()
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(prefix)+16], 16, 64)
	return v, err == nil
}

// open recovers the durable state from dir and returns a store positioned
// to append after it.  Recovery is idempotent: Open rewrites a fresh
// snapshot of the recovered state and truncates the log, so a crash at any
// point — including during Open itself — recovers to the same state.
func open(cfg openConfig) (*store, Recovered, error) {
	if cfg.FS == nil || cfg.Dir == "" {
		return nil, Recovered{}, fmt.Errorf("durable: open needs an FS and a directory")
	}
	if len(cfg.Genesis.Shards) == 0 {
		return nil, Recovered{}, fmt.Errorf("durable: open needs a genesis state (see Genesis)")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: create log dir: %w", err)
	}
	s := &store{fs: cfg.FS, dir: cfg.Dir, opts: cfg.Store.withDefaults(), met: cfg.Metrics}
	s.flushDone.L = &s.flushMu
	s.checkpointer = s.runCheckpoint
	s.dirPrefix = filepath.Join(cfg.Dir, "x")
	s.dirPrefix = s.dirPrefix[:len(s.dirPrefix)-1]

	base, snapLSN, recs, torn, err := s.load(cfg.Genesis)
	if err != nil {
		return nil, Recovered{}, err
	}
	replayStart := time.Now()
	st, err := replayState(base, recs)
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
		s.met.RecoveryReplay.Observe(rec.ReplayDuration)
		s.met.RecoveryRecords.Add(int64(len(recs)))
		if torn {
			s.met.TornTails.Inc()
		}
	}

	// Make recovery the new ground truth: checkpoint the recovered state,
	// drop everything else, start a fresh segment.  Until the snapshot's
	// SyncDir lands, the old snapshot+log remain the durable prefix and a
	// crash replays to the identical state.
	s.written.Store(st.LSN)
	// What that checkpoint writes is not a leftover, though load may have
	// listed the same names: a snapshot at an unchanged LSN, its temp file,
	// the segment after it.
	fresh := []string{snapName(st.LSN), snapName(st.LSN) + ".tmp", segName(st.LSN + 1)}
	s.leftovers = slices.DeleteFunc(s.leftovers, func(path string) bool {
		return slices.Contains(fresh, filepath.Base(path))
	})
	if err := s.writeSnapshot(&st); err != nil {
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// load finds the newest valid snapshot and the contiguous record run after
// it.  A torn or corrupt frame, an LSN gap, or a bad segment header ends
// the run: the durable prefix property says everything before is state,
// everything after is noise.  It is the one place the directory is listed:
// every snapshot, segment and temp file it finds is a leftover for open's
// checkpoint to remove, and nothing lists the directory after it.
func (s *store) load(genesis State) (base State, snapLSN uint64, recs []Record, torn bool, err error) {
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
		} else if filepath.Ext(name) != ".tmp" {
			continue
		}
		s.leftovers = append(s.leftovers, filepath.Join(s.dir, name))
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
		if len(data) == 0 {
			continue // opened by a seal and never flushed: it holds nothing, so nothing is torn
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

func (s *store) readFile(path string) ([]byte, error) {
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

func (s *store) readSnapshot(path string) (State, error) {
	data, err := s.readFile(path)
	if err != nil {
		return State{}, err
	}
	r := bytes.NewReader(data)
	var hdr [snapHeaderLen]byte
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
	st, err := decodeSnapshot(payload)
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

// writeSegHeader writes a segment's header to f, built in the writer's
// scratch: rotate runs under the plane lock, like Write.
func (s *store) writeSegHeader(f vfs.File, first uint64) error {
	b := append(s.frame[:0], walMagic...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint64(b, first)
	s.frame = b
	_, err := f.Write(b)
	return err
}

// grantDelta is one change to the live grant set since the last seal: a
// grant committed or, with done, the grant of g.JobID completed.
type grantDelta struct {
	g    GrantRecord
	done bool
}

// checkpoint is one compaction of the log: started by seal under the plane
// lock, carried out by one goroutine, over once finish has run.  What the
// goroutine leaves in it is read after that.  It is the one object a seal
// allocates.
type checkpoint struct {
	done sync.WaitGroup // one count, the goroutine's
	over atomic.Bool
	err  error
	// cut is the state seal was handed, whose grants the fold fills in.
	cut State
	// sealed is the path of the segment the seal swapped out, which the
	// snapshot covers; "" when it swapped none.
	sealed string
	// delta is the changes the fold applies, handed back for reuse once it
	// has; elapsed lists the grants the fold dropped because their reserved
	// time had run out at the cut, which the plane's map may still hold.
	delta   []grantDelta
	elapsed []int
}

// running reports whether the checkpoint's goroutine has yet to finish.
func (ck *checkpoint) running() bool { return !ck.over.Load() }

// wait returns once the checkpoint is over.
func (ck *checkpoint) wait() { ck.done.Wait() }

// finish marks the checkpoint over: the last thing its goroutine does, for
// the next seal may start the next one as soon as running says false.
func (ck *checkpoint) finish() {
	ck.over.Store(true)
	ck.done.Done()
}

// seal is the half of a checkpoint that runs under the plane lock, with no
// other checkpoint in flight.  cut is the log head, the clock and the shards
// as they stand; the grant set there is the last checkpoint's with delta —
// every change since, in order — folded in, and that fold, like everything
// that follows it, is the goroutine's.  All seal does to the disk is open
// the segment for the records after the cut: it walks no grants and encodes,
// flushes and removes nothing.
func (s *store) seal(cut State, delta []grantDelta) *checkpoint {
	ck := &checkpoint{cut: cut, delta: delta}
	ck.done.Add(1)
	s.ckpt = ck
	var err error
	if ck.sealed, err = s.rotate(cut.LSN + 1); err != nil {
		ck.err = err
		ck.finish()
		return ck
	}
	s.recordsSinceSnap = 0
	go s.checkpointer()
	return ck
}

// rotate makes wal-<first> the open segment and keeps the one it replaces as
// sealed, returning that one's path ("" if there was none to replace).
// Nothing is flushed: the new segment's bytes and directory entry reach the
// disk with the next flush, or with the checkpoint's publication.
func (s *store) rotate(first uint64) (sealed string, err error) {
	if err := s.refused(); err != nil {
		return "", err
	}
	if s.seg != nil && s.recordsSinceSnap == 0 {
		return "", nil // nothing written since the last seal: the open segment starts at first already
	}
	name := fileName(s.dirPrefix, "wal-", first, ".log")
	seg, err := s.fs.Create(name)
	if err != nil {
		return "", s.poison(fmt.Errorf("durable: create segment: %w", err))
	}
	if err := s.writeSegHeader(seg, first); err != nil {
		seg.Close()
		return "", s.poison(fmt.Errorf("durable: write segment header: %w", err))
	}
	s.flushMu.Lock()
	s.sealed, s.seg, s.dirDirty = s.seg, seg, true
	s.flushMu.Unlock()
	sealed, s.segName = s.segName, name
	return sealed, nil
}

// runCheckpoint is the half that runs behind the writer and the flushers,
// on the goroutine seal starts for s.ckpt: fold the grant set at the cut,
// write and publish the snapshot, remove what it covers.  A failure poisons
// the store.
func (s *store) runCheckpoint() {
	ck := s.ckpt
	if err := s.compact(ck, &ck.cut); err != nil {
		ck.err = s.poison(err)
	}
	ck.finish()
}

// compact is a checkpoint's work, in order: the fold, the publication, the
// removal.  It returns the first error, which the caller poisons with.
func (s *store) compact(ck *checkpoint, cut *State) error {
	var start time.Time // read only when there is a histogram to feed
	if s.met != nil {
		start = time.Now()
	}
	f := fold{live: s.spare, elapsed: s.elapsed, order: s.order, now: cut.Now}
	f.grants(s.base, ck.delta)
	cut.Grants, ck.elapsed = f.live, f.elapsed
	s.base, s.spare, s.order, s.elapsed = f.live, s.base, f.order, nil
	replaced := s.snap
	size, err := s.publish(cut)
	if replaced == s.snap {
		replaced = "" // republished at an unchanged LSN: the name is the new snapshot's
	}
	if err == nil {
		err = s.removeCovered(replaced, ck.sealed)
	}
	if err != nil {
		return err
	}
	if s.met != nil {
		s.met.SnapshotBytes.Set(float64(size))
		s.met.SnapshotDuration.Observe(time.Since(start))
		s.met.Snapshots.Inc()
	}
	return nil
}

// fold is a checkpoint's merge of the changes since the last cut into the
// grant list that cut left, in buffers the caller lends it: live and
// elapsed are its output, order its scratch, and grants starts all three
// over at length zero, so the store's buffers serve one checkpoint after
// another.
type fold struct {
	live    []GrantRecord
	elapsed []int
	order   []int
	now     float64
}

// grants applies delta, in order, to base — the grants live at the last cut,
// by ascending job ID — and prunes at now.  What it leaves in live is what
// the plane's own export returns at this cut (sortedLiveGrantsLocked is the
// oracle it is held to), built without the plane: the fold applyRecord and
// Prune make on recovery.  elapsed lists the grants it dropped because their
// time had run out.
func (f *fold) grants(base []GrantRecord, delta []grantDelta) {
	f.live, f.elapsed = f.live[:0], f.elapsed[:0]
	// order lists delta by job ID, an ID's later change behind its earlier
	// ones: the last says what became of it.
	order := f.order[:0]
	for i := range delta {
		order = append(order, i)
	}
	f.order = order
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(delta[a].g.JobID, delta[b].g.JobID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	i := 0
	for j := 0; j < len(order); j++ {
		id := delta[order[j]].g.JobID
		for j+1 < len(order) && delta[order[j+1]].g.JobID == id {
			j++
		}
		for ; i < len(base) && base[i].JobID < id; i++ {
			f.keep(&base[i])
		}
		for i < len(base) && base[i].JobID == id {
			i++ // completed or granted anew since: the change stands in its place
		}
		if last := &delta[order[j]]; !last.done {
			f.keep(&last.g)
		}
	}
	for ; i < len(base); i++ {
		f.keep(&base[i])
	}
}

// keep files g as live or as elapsed, by the predicate Prune applies.
func (f *fold) keep(g *GrantRecord) {
	if g.finish() > f.now {
		f.live = append(f.live, *g)
	} else {
		f.elapsed = append(f.elapsed, g.JobID)
	}
}

// publish writes st as the snapshot of its LSN: to a temp name, synced,
// renamed into place and made durable by SyncDir.  From there on the
// snapshot is the state through that LSN whatever becomes of the segments
// under it, so durableLSN rises to it.  The file — its header, the frame
// header and the payload — is built in s.encoded and written in one call.
func (s *store) publish(st *State) (size int, err error) {
	b := append(s.encoded[:0], snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = append(b, make([]byte, frame.HeaderLen)...) // filled in once the payload is behind it
	b = appendSnapshot(b, st)
	frame.PutHeader(b[snapHeaderLen:snapHeaderLen+frame.HeaderLen], b[snapHeaderLen+frame.HeaderLen:])
	s.encoded = b
	tmp := fileName(s.dirPrefix, "snap-", st.LSN, ".snap.tmp")
	name := tmp[:len(tmp)-len(".tmp")]
	f, err := s.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("durable: create snapshot: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, name); err != nil {
		return 0, fmt.Errorf("durable: publish snapshot: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return 0, fmt.Errorf("durable: sync log dir: %w", err)
	}
	s.snap = name
	s.raiseDurable(st.LSN)
	return len(b), nil
}

// removeCovered drops what the snapshot just published made garbage, by
// name: the leftovers open's listing found, the snapshot it replaced and
// the segment its seal swapped out.  It keeps going past a failure —
// whatever stays behind, recovery reads the newest snapshot and skips the
// records it covers, and the next open removes it — and reports them all.
func (s *store) removeCovered(replaced, sealedSeg string) error {
	// The publishing SyncDir carried the open segment's entry with it, and
	// the sealed segment's tail is covered whether or not a flush got to it.
	// A flush started before the seal may still be syncing the sealed
	// segment as the open one: its handle is closed once that has published.
	s.flushMu.Lock()
	sealed := s.sealed
	s.sealed, s.dirDirty = nil, false
	for ticket := s.started; sealed != nil && s.published < ticket; {
		s.flushDone.Wait()
	}
	s.flushMu.Unlock()
	var err error
	if sealed != nil {
		err = during("close sealed segment", sealed.Close())
	}
	for _, path := range s.leftovers {
		err = errors.Join(err, s.remove(path))
	}
	s.leftovers = nil
	return errors.Join(err, s.remove(replaced), s.remove(sealedSeg),
		during("sync log dir", s.fs.SyncDir(s.dir)))
}

// remove deletes the file at path, if path names one.
func (s *store) remove(path string) error {
	if path == "" {
		return nil
	}
	if err := s.fs.Remove(path); err != nil {
		return during("remove "+filepath.Base(path), err)
	}
	return nil
}

// during names the step a checkpoint's error came from.
func during(step string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("durable: %s: %w", step, err)
}

// Phase is how far a checkpoint has got, as its filesystem calls say: each
// phase is the state the checkpoint stands in once that phase's calls are
// through, however many calls a phase takes.  seal, publish and
// removeCovered make the calls, in this order; Classify is what a harness
// that sees only the calls reads them with, so that a change to their order
// is made, and caught, here.  The phases no other package names stay
// unexported.
type Phase int

const (
	PhaseSealed         Phase = iota // the seal's segment created and its header written, under the plane lock
	PhaseTempCreated                 // the snapshot's temp file created: the checkpoint goroutine's first call
	phaseTempWritten                 // its bytes written
	phaseTempSynced                  // synced and closed
	phaseRenamed                     // renamed into place
	phaseDirSynced                   // the rename made durable: the snapshot is published
	phaseCoveredRemoved              // the sealed segment closed, what the snapshot covers removed
	PhaseOver                        // the removals made durable: the checkpoint is over
)

var phaseNames = [...]string{"sealed", "temp-created", "temp-written", "temp-synced", "renamed", "dir-synced", "covered-removed", "over"}

func (ph Phase) String() string { return phaseNames[ph] }

// Call is a kind of filesystem call, as Classify reads it.  OpenAppend is a
// Create: the store opens nothing else for writing.
type Call int

const (
	CallCreate Call = iota
	CallWrite
	CallSync
	CallClose
	CallRename
	CallRemove
	CallSyncDir
)

// Classify returns the phase a checkpoint stands in once call c on the file
// name is through, at being the phase it stood in before.  A call the
// checkpoint does not make leaves it at: a record's write, a flush's sync of
// a segment, and before the snapshot is published a flush's directory sync
// or close of the sealed segment.  Past the publication those are the
// checkpoint's calls, and a flush's classifies as the checkpoint's would: a
// harness that needs the two apart tells them by who makes the call.  The
// seal's header write is a segment write like any other: IsSeal names it.
func Classify(c Call, name string, at Phase) Phase {
	temp := isSnapshotTemp(name)
	switch c {
	case CallCreate:
		if temp {
			return PhaseTempCreated
		}
		if IsSegment(name) {
			return PhaseSealed
		}
	case CallWrite:
		if temp {
			return phaseTempWritten
		}
	case CallSync, CallClose:
		if temp {
			return phaseTempSynced
		}
		if c == CallClose && IsSegment(name) && at >= phaseDirSynced && at < PhaseOver {
			return phaseCoveredRemoved
		}
	case CallRename:
		return phaseRenamed
	case CallRemove:
		return phaseCoveredRemoved
	case CallSyncDir:
		if at == phaseRenamed {
			return phaseDirSynced
		}
		if at > phaseRenamed {
			return PhaseOver
		}
	}
	return at
}

// IsSegment reports whether path names a journal segment.
func IsSegment(path string) bool {
	_, ok := parseName(filepath.Base(path), "wal-", ".log")
	return ok
}

// IsSeal reports whether a write to a segment carries the segment's header:
// the one write a seal makes there.  A record's frame never starts with the
// magic, which as its length would be past maxFramePayload.
func IsSeal(p []byte) bool {
	return len(p) >= len(walMagic) && string(p[:len(walMagic)]) == walMagic
}

// isSnapshotTemp reports whether path names the temp file publish writes a
// snapshot to.
func isSnapshotTemp(path string) bool {
	_, ok := parseName(filepath.Base(path), "snap-", ".snap.tmp")
	return ok
}

func (s *store) poison(err error) error {
	if s.poisoned.CompareAndSwap(nil, &err) && s.met != nil {
		s.met.Poisoned.Set(1)
	}
	return err
}

// Poisoned returns the first write, sync or checkpoint error, or nil.  A
// poisoned store refuses all further writes; reopen to recover.
func (s *store) Poisoned() error {
	if err := s.poisoned.Load(); err != nil {
		return *err
	}
	return nil
}

// refused is Poisoned as a write or a flush reports it.
func (s *store) refused() error {
	if err := s.Poisoned(); err != nil {
		return fmt.Errorf("durable: store poisoned by earlier error: %w", err)
	}
	return nil
}

// Write is the first half of an append, for the one writer the plane lock
// admits: it assigns the record the next LSN and writes its frame — header
// and payload in a single Write, so a record is one syscall on vfs.OS.  It
// does not flush.  wait is the LSN the caller must syncTo, once it has let
// the next writer in, before it acknowledges the record; 0 when the sync
// policy lets the record ride on a later flush: under SyncAlways everything
// but a promise — a record that binds the plane to something a recovered
// plane must still honour — and under SyncEveryN everything until the log
// is SyncEvery records ahead of the disk.  On failure the store is poisoned
// and the caller must not acknowledge.
func (s *store) Write(r *Record, promise bool) (wait uint64, err error) {
	if err := s.refused(); err != nil {
		return 0, err
	}
	var start time.Time // read only when there is a histogram to feed
	if s.met != nil {
		start = time.Now()
	}
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
		s.met.AppendLatency.Observe(time.Since(start))
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

// flushDepth is how many flushes run at once.  Two is a property of the
// design, not a setting: with two callers each one's flush overlaps the
// other's, exactly as with no bound at all, and from the third caller on
// the rest wait for a slot and find their records covered by the next flush
// to start, batched behind the running pair as one flusher batched them.
// That caps what the device is asked to queue, which is where overlap
// without a bound lost on a real disk.
const flushDepth = 2

// syncTo is the second half: it returns once the record Write numbered lsn
// is on stable storage.  A caller whose record a running flush covers
// follows that flush; one whose record none covers leads a new flush if
// fewer than flushDepth run, and waits for a slot otherwise.  A flush
// covers every record written before it started, so most callers that
// waited find their own record durable — as does one whose record a
// checkpoint published meanwhile — and return without touching the disk.
// On failure the store is poisoned and the caller must not acknowledge.
func (s *store) syncTo(lsn uint64) error {
	if s.durableLSN.Load() >= lsn {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		if s.durableLSN.Load() >= lsn {
			return nil
		}
		if err := s.refused(); err != nil {
			return err
		}
		if s.reach < lsn && s.started-s.published < flushDepth {
			return s.flush()
		}
		s.flushDone.Wait()
	}
}

// flush syncs the log and publishes what that made durable; it is called,
// and returns, with flushMu held, and drops it for the syncs.  After a seal
// the log is more than the open segment: the sealed one may end in records
// no flush has covered, and the open one's directory entry may not be on
// the disk; the first flush to start after the seal takes both duties.  It
// publishes only once the flush started before it has: if that one failed,
// the store is poisoned and this one fails with it — an fsync error is
// reported once, and a later sync's success says nothing of what it lost.
func (s *store) flush() error {
	through := s.written.Load() // read first: the sync covers at least this
	ticket, sealed, seg, dirty := s.started, s.sealed, s.seg, s.dirDirty
	s.started, s.reach, s.sealed, s.dirDirty = ticket+1, through, nil, false
	s.flushMu.Unlock()
	err := s.sync(sealed, seg, dirty, through)
	s.flushMu.Lock()
	for s.published != ticket {
		s.flushDone.Wait()
	}
	if sealed != nil { // the flush before may have synced it as the open one until now
		if cerr := sealed.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("durable: close sealed segment: %w", cerr)
		}
	}
	if perr := s.refused(); perr != nil {
		err = perr
	} else if err != nil {
		err = s.poison(err)
	} else {
		s.raiseDurable(through)
		if s.met != nil {
			s.met.Fsyncs.Inc()
		}
	}
	s.published++
	s.flushDone.Broadcast()
	return err
}

// sync is a flush's disk work, done with no lock held.
func (s *store) sync(sealed, seg vfs.File, dirty bool, through uint64) error {
	if sealed != nil {
		if err := sealed.Sync(); err != nil {
			return fmt.Errorf("durable: sync sealed segment: %w", err)
		}
	}
	if err := seg.Sync(); err != nil {
		return fmt.Errorf("durable: sync log through lsn %d: %w", through, err)
	}
	if dirty {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return fmt.Errorf("durable: sync log dir: %w", err)
		}
	}
	return nil
}

// raiseDurable moves durableLSN up to lsn, never down: a flush and a
// checkpoint's publication may both be raising it.
func (s *store) raiseDurable(lsn uint64) {
	for cur := s.durableLSN.Load(); cur < lsn; cur = s.durableLSN.Load() {
		if s.durableLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Append is both halves back to back: the record is written, and flushed
// if it must be, before Append returns.  For a writer that cannot let go
// of the plane lock in between; every record counts as a promise.
func (s *store) Append(r *Record) (uint64, error) {
	wait, err := s.Write(r, true)
	if err == nil && wait != 0 {
		err = s.syncTo(wait)
	}
	if err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// writeSnapshot is Open's checkpoint, waited for: st is the recovered state,
// which covers every written record (st.LSN == last assigned LSN) and
// carries the whole grant set, pruned and sorted, and the fold starts over
// from it.
func (s *store) writeSnapshot(st *State) error {
	if err := s.refused(); err != nil {
		return err
	}
	if head := s.written.Load(); st.LSN != head {
		return fmt.Errorf("durable: snapshot at LSN %d does not cover the log head %d", st.LSN, head)
	}
	s.base = append(s.base[:0], st.Grants...)
	ck := s.seal(State{LSN: st.LSN, Now: st.Now, Shards: st.Shards}, nil)
	ck.wait()
	return ck.err
}

// shouldSnapshot reports whether enough records accumulated since the last
// seal to warrant another checkpoint (per StoreOptions.SnapshotEvery).
func (s *store) shouldSnapshot() bool { return s.recordsSinceSnap >= s.opts.SnapshotEvery }

// nextLSN returns the LSN the next write will receive.
func (s *store) nextLSN() uint64 { return s.written.Load() + 1 }

// DurableLSN returns the highest LSN known synced to stable storage.
func (s *store) DurableLSN() uint64 { return s.durableLSN.Load() }

// Close waits for the checkpoint and the flushes in flight, flushes what was
// written and not yet flushed — under SyncAlways the refusals, clock reports
// and completions since the last promise, under SyncEveryN the tail short of
// N — and closes the log, so a clean stop leaves nothing riding and no
// goroutine behind.  syncNever stays the operating system's business.
func (s *store) Close() error {
	s.ckpt.wait()
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for s.published != s.started {
		s.flushDone.Wait()
	}
	if s.seg == nil {
		return nil
	}
	var err error
	if s.opts.Sync != syncNever && s.Poisoned() == nil && s.durableLSN.Load() < s.written.Load() {
		err = s.flush()
	}
	if s.sealed != nil { // a failed checkpoint left it
		if cerr := s.sealed.Close(); err == nil {
			err = cerr
		}
		s.sealed = nil
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	return err
}

// replayState rebuilds the scheduler from base and applies recs in log
// order, returning the resulting state.  Replay applies committed decisions
// verbatim — it never re-plans — so the result is bit-exact.  The durable
// plane is one shard: a snapshot that declares another count, or a record
// that names a shard other than 0, is a corrupt log, and refused.
func replayState(base State, recs []Record) (State, error) {
	if len(base.Shards) != 1 {
		return State{}, fmt.Errorf("corrupt log: snapshot at lsn %d declares %d shards, the durable plane has 1", base.LSN, len(base.Shards))
	}
	sh := base.Shards[0]
	sc := core.NewScheduler(max(sh.Profile.Capacity, 1), 0, nil)
	if err := sc.RestoreState(sh); err != nil {
		return State{}, err
	}
	st := State{
		LSN:    base.LSN,
		Now:    base.Now,
		Grants: append([]GrantRecord(nil), base.Grants...),
	}
	for i := range recs {
		if err := applyRecord(&st, sc, &recs[i]); err != nil {
			return State{}, fmt.Errorf("record lsn=%d kind=%s: %w", recs[i].LSN, recs[i].Kind, err)
		}
		st.LSN = recs[i].LSN
	}
	st.Shards = []core.SchedulerState{sc.ExportState()}
	// Mirror the live plane, which drops elapsed grants as its clock
	// advances: prune by the final recovered clock.
	st.prune()
	return st, nil
}

func applyRecord(st *State, sc *core.Scheduler, r *Record) error {
	if r.Shard != 0 {
		return fmt.Errorf("corrupt log: names shard %d, the durable plane has only shard 0", r.Shard)
	}
	switch r.Kind {
	case KindObserve:
		if r.Now > st.Now {
			sc.Observe(r.Now)
			st.Now = r.Now
		}
	case KindCapacity:
		if err := sc.SetCapacity(r.Procs); err != nil {
			return err
		}
	case KindAdmit, kindRenegotiate:
		pl := &core.Placement{JobID: r.JobID, Chain: r.Chain, Tasks: r.Tasks}
		if err := sc.ReplayCommit(pl, r.Quality, r.Tunable); err != nil {
			return err
		}
		g := GrantRecord{
			JobID: r.JobID, Shard: r.Shard, Chain: r.Chain,
			Quality: r.Quality, Tunable: r.Tunable,
			Tenant: r.Tenant, Class: r.Class,
			Tasks: append([]core.TaskPlacement(nil), r.Tasks...),
		}
		if r.Kind == kindRenegotiate {
			for i := range st.Grants {
				if st.Grants[i].JobID == r.JobID {
					st.Grants[i] = g
					return nil
				}
			}
		}
		st.Grants = append(st.Grants, g)
	case KindReject:
		sc.NoteRejected()
	case kindShed:
		// Shed jobs never touched a scheduler; the record exists so
		// recovery can prove they did not reappear as grants.
	case kindComplete:
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
