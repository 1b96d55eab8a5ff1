package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
)

func openMem(t *testing.T, fs vfs.FS, opts StoreOptions) (*store, Recovered) {
	t.Helper()
	gen, err := genesis(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, rec, err := open(openConfig{FS: fs, Dir: "log", Genesis: gen, Store: opts})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s, rec
}

func appendObserve(t *testing.T, s *store, now float64) uint64 {
	t.Helper()
	lsn, err := s.Append(&Record{Kind: KindObserve, Now: now})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return lsn
}

func TestStoreOpenGenesisAndReopen(t *testing.T) {
	mem := vfs.NewMem()
	s, rec := openMem(t, mem, StoreOptions{})
	if rec.Records != 0 || rec.Torn || rec.SnapshotLSN != 0 {
		t.Fatalf("genesis recovery = %+v", rec)
	}
	if got := rec.State.procs(); got != 8 {
		t.Fatalf("genesis procs = %d", got)
	}
	for i := 1; i <= 5; i++ {
		if lsn := appendObserve(t, s, float64(i)); lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if s.DurableLSN() != 5 {
		t.Fatalf("durable lsn = %d", s.DurableLSN())
	}
	s.Close()

	// Clean reopen (no crash): all five records replay.
	s2, rec2 := openMem(t, mem, StoreOptions{})
	if rec2.Records != 5 || rec2.Torn {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	if rec2.State.LSN != 5 || rec2.State.Now != 5 {
		t.Fatalf("recovered state lsn=%d now=%v", rec2.State.LSN, rec2.State.Now)
	}
	if s2.nextLSN() != 6 {
		t.Fatalf("next lsn = %d", s2.nextLSN())
	}
	s2.Close()
}

func TestStoreCrashKeepsSyncedPrefix(t *testing.T) {
	mem := vfs.NewMem()
	s, _ := openMem(t, mem, StoreOptions{Sync: SyncAlways})
	for i := 1; i <= 3; i++ {
		appendObserve(t, s, float64(i))
	}
	mem.Crash() // no Close: simulated power failure

	_, rec := openMem(t, mem, StoreOptions{})
	if rec.State.LSN != 3 || rec.Records != 3 {
		t.Fatalf("SyncAlways crash lost records: %+v", rec)
	}
}

func TestStoreCrashDropsUnsyncedTail(t *testing.T) {
	mem := vfs.NewMem()
	s, _ := openMem(t, mem, StoreOptions{Sync: SyncEveryN, SyncEvery: 2})
	for i := 1; i <= 5; i++ {
		appendObserve(t, s, float64(i))
	}
	// Records 1-4 synced (two batches of 2); record 5 volatile.
	if s.DurableLSN() != 4 {
		t.Fatalf("durable lsn = %d, want 4", s.DurableLSN())
	}
	mem.Crash()

	_, rec := openMem(t, mem, StoreOptions{})
	if rec.State.LSN != 4 {
		t.Fatalf("recovered lsn = %d, want synced prefix 4", rec.State.LSN)
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	mem := vfs.NewMem()
	s, _ := openMem(t, mem, StoreOptions{SnapshotEvery: 3})
	st := s.mustState(t)
	for i := 1; i <= 3; i++ {
		appendObserve(t, s, float64(i))
	}
	if !s.shouldSnapshot() {
		t.Fatal("ShouldSnapshot = false after SnapshotEvery records")
	}
	st.LSN, st.Now = 3, 3
	if err := s.writeSnapshot(&st); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.ReadDir("log")
	if len(names) != 2 {
		t.Fatalf("after compaction dir = %v, want exactly snapshot+segment", names)
	}

	// Crash after compaction: recovery starts from the snapshot.
	appendObserve(t, s, 4)
	mem.Crash()
	_, rec := openMem(t, mem, StoreOptions{})
	if rec.SnapshotLSN != 3 || rec.Records != 1 || rec.State.LSN != 4 {
		t.Fatalf("post-compaction recovery = %+v", rec)
	}
}

// mustState is a test helper building a snapshotable state matching the
// store's genesis shape.
func (s *store) mustState(t *testing.T) State {
	t.Helper()
	st, err := genesis(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreWriteErrorPoisons(t *testing.T) {
	boom := errors.New("disk on fire")
	mem := vfs.NewMem()
	ft := vfs.NewFault(mem)
	s, _ := openMem(t, ft, StoreOptions{})
	appendObserve(t, s, 1)

	ft.SetWriteError(boom, 0)
	if _, err := s.Append(&Record{Kind: KindObserve, Now: 2}); !errors.Is(err, boom) {
		t.Fatalf("append under write fault: %v", err)
	}
	if s.Poisoned() == nil {
		t.Fatal("store not poisoned after failed append")
	}
	ft.SetWriteError(nil, 0)
	if _, err := s.Append(&Record{Kind: KindObserve, Now: 3}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("poisoned store accepted an append: %v", err)
	}

	// Reopen recovers the pre-fault prefix and serves again.
	s2, rec := openMem(t, ft, StoreOptions{})
	if rec.State.LSN != 1 {
		t.Fatalf("recovered lsn = %d, want 1", rec.State.LSN)
	}
	appendObserve(t, s2, 2)
}

func TestStoreSyncErrorPoisons(t *testing.T) {
	boom := errors.New("fsync failed")
	ft := vfs.NewFault(vfs.NewMem())
	s, _ := openMem(t, ft, StoreOptions{})
	ft.SetSyncError(boom, 0)
	if _, err := s.Append(&Record{Kind: KindObserve, Now: 1}); !errors.Is(err, boom) {
		t.Fatalf("append under sync fault: %v", err)
	}
	if s.Poisoned() == nil {
		t.Fatal("store not poisoned after failed sync")
	}
}

func TestStoreBitFlipStopsReplay(t *testing.T) {
	mem := vfs.NewMem()
	s, _ := openMem(t, mem, StoreOptions{})
	for i := 1; i <= 4; i++ {
		appendObserve(t, s, float64(i))
	}
	s.Close()

	// Flip a bit in the third record's payload region.  The durable view
	// is what recovery reads after a crash, so corrupt both views.
	names, _ := mem.ReadDir("log")
	var seg string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			seg = "log/" + n
		}
	}
	f, err := mem.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 4096)
	n, _ := f.ReadAt(all, 0)
	all = all[:n]
	// Header 20 bytes; each observe frame is 8 + (1+8+8) = 25 bytes.
	all[20+2*25+10] ^= 0x40
	nf, _ := mem.Create(seg)
	nf.Write(all)
	nf.Sync()
	mem.SyncDir("log")
	mem.Crash()

	// durable_torn_tails counts the recoveries that stopped at a torn tail:
	// this one, and not the clean reopen after it.
	met := NewMetrics(obs.NewRegistry())
	gen, err := genesis(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() Recovered {
		t.Helper()
		s, rec, err := open(openConfig{FS: mem, Dir: "log", Genesis: gen, Metrics: met})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		s.Close()
		return rec
	}
	rec := reopen()
	if !rec.Torn || met.TornTails.Value() != 1 {
		t.Fatalf("corrupt record: torn=%v, durable_torn_tails=%d, want true and 1", rec.Torn, met.TornTails.Value())
	}
	if rec.State.LSN != 2 {
		t.Fatalf("recovered lsn = %d, want clean prefix 2", rec.State.LSN)
	}
	if rec = reopen(); rec.Torn || met.TornTails.Value() != 1 {
		t.Fatalf("clean reopen: torn=%v, durable_torn_tails=%d, want false and still 1", rec.Torn, met.TornTails.Value())
	}
}

func TestStoreTornTailAfterLyingSync(t *testing.T) {
	ft := vfs.NewFault(vfs.NewMem())
	s, _ := openMem(t, ft, StoreOptions{})
	appendObserve(t, s, 1)
	ft.SetSyncLie(true)
	appendObserve(t, s, 2) // acked, but the sync was a lie
	appendObserve(t, s, 3)
	if s.DurableLSN() != 3 {
		t.Fatalf("store believes lsn %d durable", s.DurableLSN())
	}
	ft.Crash()

	// The lie is exposed: only the honestly synced prefix survives.
	_, rec := openMem(t, ft, StoreOptions{})
	if rec.State.LSN != 1 {
		t.Fatalf("recovered lsn = %d, want 1 (records 2-3 were lied about)", rec.State.LSN)
	}
}

// TestAppendIssuesOneWritePerRecord: a record's frame — header and payload
// — leaves in a single Write (one syscall on the real filesystem), and the
// bytes on disk are still exactly the two-part frame recovery reads.
func TestAppendIssuesOneWritePerRecord(t *testing.T) {
	ft := vfs.NewFault(vfs.NewMem())
	s, _ := openMem(t, ft, StoreOptions{})
	recs := []Record{
		{Kind: KindObserve, Now: 1.5},
		{Kind: KindAdmit, Shard: 1, JobID: 7, Chain: 1, Quality: 0.75, Tunable: true, Tenant: "acme", Class: 2,
			Tasks: []core.TaskPlacement{{Task: 0, Procs: 2, Start: 2, Finish: 4}, {Task: 1, Procs: 1, Start: 4, Finish: 9}}},
		{Kind: KindReject, JobID: 8, Tenant: "acme"},
		{Kind: kindComplete, Shard: 1, JobID: 7, Finish: 8},
		{Kind: KindObserve, Now: 9}, // shorter than the frame before it: the reused buffer must not leak a tail
	}
	var want bytes.Buffer
	before := ft.Counts().Writes
	for i := range recs {
		if _, err := s.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		want.Write(framed(encodeRecord(&recs[i])))
	}
	if got := ft.Counts().Writes - before; got != int64(len(recs)) {
		t.Fatalf("%d records took %d writes, want one each", len(recs), got)
	}
	f, err := ft.Open(s.segName)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := data[20:]; !bytes.Equal(got, want.Bytes()) { // 20-byte segment header
		t.Fatalf("segment bytes differ from the framed records:\n got %x\nwant %x", got, want.Bytes())
	}
	s.Close()
	_, rec := openMem(t, ft, StoreOptions{})
	if rec.Records != len(recs) || rec.Torn {
		t.Fatalf("recovery = %+v, want all %d records", rec, len(recs))
	}
}

// File names are the log's on-disk index: they must stay byte for byte what
// the fmt-based naming wrote, and parsing must keep refusing everything else.
func TestFileNamesMatchFmt(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xabc, 1 << 32, 0x0123456789abcdef, ^uint64(0)} {
		if got, want := segName(v), fmt.Sprintf("wal-%016x.log", v); got != want {
			t.Fatalf("segName(%#x) = %q, want %q", v, got, want)
		}
		if got, want := snapName(v), fmt.Sprintf("snap-%016x.snap", v); got != want {
			t.Fatalf("snapName(%#x) = %q, want %q", v, got, want)
		}
		if got, ok := parseName(segName(v), "wal-", ".log"); !ok || got != v {
			t.Fatalf("parseName(%q) = %#x, %v", segName(v), got, ok)
		}
	}
	for _, bad := range []string{
		"wal-00000000000000.log",       // 14 digits
		"wal-000000000000000001.log",   // 18 digits
		"snap-0000000000000001.log",    // wrong prefix
		"wal-0000000000000001.log.tmp", // wrong suffix
		"wal-000000000000000g.log",     // not hex
		"wal-+000000000000001.log",     // a sign is not a digit
		"wal-0000_00000000001.log",     // nor is an underscore
		"wal-0x00000000000001.log",
	} {
		if v, ok := parseName(bad, "wal-", ".log"); ok {
			t.Fatalf("parseName(%q) accepted as %#x", bad, v)
		}
	}
}
