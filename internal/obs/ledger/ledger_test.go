package ledger

import (
	"testing"

	"milan/internal/core"
)

// mkPl builds a one-task placement spanning [start, start+dur) on procs
// processors.
func mkPl(start, dur float64, procs int) *core.Placement {
	return &core.Placement{Tasks: []core.TaskPlacement{{
		Task: 0, Start: start, Finish: start + dur, Procs: procs,
	}}}
}

func TestRealizedAndWaste(t *testing.T) {
	l := New(Config{Capacity: 4})
	k := Key{Tenant: "a", Class: 1}
	l.RecordCommitKeyed(k, mkPl(0, 10, 2))
	l.RecordCommitKeyed(k, mkPl(10, 10, 2))
	l.RecordCompletion(k, mkPl(0, 10, 2))
	s := l.Snapshot()
	if s.TotalRealizedArea != 20 || s.TotalReservedArea != 40 {
		t.Fatalf("reserved/realized = %v/%v, want 40/20", s.TotalReservedArea, s.TotalRealizedArea)
	}
	if got := s.TotalWasteArea(); got != 20 {
		t.Fatalf("waste = %v, want 20 (one reservation still in flight)", got)
	}
	if len(s.Totals) != 1 || s.Totals[0].Waste() != 20 {
		t.Fatalf("per-key totals = %+v, want one entry with waste 20", s.Totals)
	}
}

// TestCapacityTimeline pins what a capacity restatement does to the book:
// the snapshot reports the new capacity, the version moves, and the
// exact totals committed before it are untouched.
func TestCapacityTimeline(t *testing.T) {
	l := New(Config{Capacity: 4})
	l.RecordCommitKeyed(Key{}, mkPl(0, 100, 1))
	before := l.Snapshot()
	l.SetCapacity(8)
	s := l.Snapshot()
	if s.Capacity != 8 {
		t.Errorf("snapshot capacity = %d, want 8", s.Capacity)
	}
	if s.Version <= before.Version {
		t.Errorf("version = %d after restatement, want > %d", s.Version, before.Version)
	}
	if s.TotalReservedArea != 100 || len(s.Totals) != 1 || s.Totals[0].ReservedArea != 100 {
		t.Errorf("totals after restatement = %v / %+v, want 100 in one key", s.TotalReservedArea, s.Totals)
	}
}

// TestSetCapacityClampsMonotone pins the capacity the ledger reports: the
// latest restatement, whatever order the restatements came in.
func TestSetCapacityClampsMonotone(t *testing.T) {
	l := New(Config{Capacity: 4})
	l.SetCapacity(8)
	if got := l.Snapshot().Capacity; got != 8 {
		t.Fatalf("capacity = %d, want 8", got)
	}
	l.SetCapacity(6)
	if got := l.Snapshot().Capacity; got != 6 {
		t.Fatalf("capacity = %d, want 6", got)
	}
}

func TestAdvanceMonotone(t *testing.T) {
	l := New(Config{Capacity: 1})
	l.Advance(100)
	s1 := l.Snapshot()
	l.Advance(50) // earlier: must be a no-op, including the version
	if s2 := l.Snapshot(); s2 != s1 {
		t.Fatalf("backward Advance rebuilt the snapshot (version bumped)")
	}
	if l.Snapshot().Now != 100 {
		t.Fatalf("now = %v, want 100", l.Snapshot().Now)
	}
}

func TestSnapshotCachedUntilMutation(t *testing.T) {
	l := New(Config{Capacity: 2})
	l.RecordCommitKeyed(Key{Tenant: "x"}, mkPl(0, 10, 1))
	s1 := l.Snapshot()
	if s2 := l.Snapshot(); s2 != s1 {
		t.Fatalf("unmutated snapshot not cached")
	}
	l.RecordRejection(&core.Job{Tenant: "x"})
	if s3 := l.Snapshot(); s3 == s1 {
		t.Fatalf("snapshot not rebuilt after mutation")
	}
}

func TestNilLedgerSafe(t *testing.T) {
	var l *Ledger
	l.RecordCommit(&core.Job{}, mkPl(0, 1, 1))
	l.RecordCommitKeyed(Key{}, mkPl(0, 1, 1))
	l.RecordCompletion(Key{}, mkPl(0, 1, 1))
	l.RecordRejection(&core.Job{})
	l.Advance(10)
	l.SetCapacity(4)
	l.Mount(nil)
	if l.TotalReservedArea() != 0 || l.TotalRealizedArea() != 0 || l.ShardID() != 0 {
		t.Fatal("nil ledger reported non-zero state")
	}
	if l.Snapshot() != nil {
		t.Fatal("nil ledger returned a snapshot")
	}
	var sh *Sharded
	if h := sh.DecisionObserver(nil); h != nil {
		t.Fatal("nil ledger decision observer should pass next through (nil)")
	}
	sh.Advance(1)
	sh.Mount(nil)
	if sh.Shards() != 0 || sh.Shard(0) != nil || sh.Merged() != nil {
		t.Fatal("nil sharded ledger reported non-zero state")
	}
}

func TestFairShares(t *testing.T) {
	l := New(Config{Capacity: 4})
	a, b := Key{Tenant: "a"}, Key{Tenant: "b"}
	pa, pb := mkPl(0, 10, 3), mkPl(10, 10, 1)
	l.RecordCommitKeyed(a, pa) // 30
	l.RecordCommitKeyed(b, pb) // 10
	l.RecordCompletion(a, pa)
	s := l.Snapshot()
	if got := s.TotalWasteArea(); got != 10 {
		t.Errorf("waste = %v, want 10 (b's reservation still in flight)", got)
	}
	shares := s.FairShares()
	if len(shares) != 2 {
		t.Fatalf("fair shares has %d entries, want 2", len(shares))
	}
	if shares[0].Share != 0.75 || shares[0].Ratio != 1.5 {
		t.Errorf("tenant a share/ratio = %v/%v, want 0.75/1.5", shares[0].Share, shares[0].Ratio)
	}
	if shares[1].Share != 0.25 || shares[1].Ratio != 0.5 {
		t.Errorf("tenant b share/ratio = %v/%v, want 0.25/0.5", shares[1].Share, shares[1].Ratio)
	}
}

func TestMergeAddsAcrossShards(t *testing.T) {
	sh := NewSharded(Config{Capacity: 4}, 2)
	a, b := Key{Tenant: "a"}, Key{Tenant: "b"}
	sh.Shard(0).RecordCommitKeyed(a, mkPl(0, 10, 2))
	sh.Shard(1).RecordCommitKeyed(a, mkPl(0, 10, 1))
	sh.Shard(1).RecordCommitKeyed(b, mkPl(10, 10, 3))
	m := sh.Merged()
	if m.TotalReservedArea != 60 {
		t.Fatalf("merged total = %v, want 60", m.TotalReservedArea)
	}
	if m.Capacity != 8 {
		t.Errorf("merged capacity = %d, want 8 (4p x 2 shards)", m.Capacity)
	}
	if got := len(m.Shards); got != 2 {
		t.Errorf("merged shard stamps = %v, want [0 1]", m.Shards)
	}
	if len(m.Totals) != 2 || m.Totals[0].ReservedArea != 30 || m.Totals[1].ReservedArea != 30 {
		t.Errorf("merged totals = %+v, want a=30 b=30", m.Totals)
	}
	if m.Commits != 3 || m.Version != max(sh.Shard(0).Snapshot().Version, sh.Shard(1).Snapshot().Version) {
		t.Errorf("merged commits/version = %d/%d", m.Commits, m.Version)
	}
}

// TestMergeContainment merges a shard whose clock ran far ahead into one
// that did not: the exact totals add, nothing is lost to the clock gap,
// and a nil side returns the other unchanged.
func TestMergeContainment(t *testing.T) {
	fine := New(Config{Capacity: 4})
	coarse := New(Config{Capacity: 4, Shard: 1})
	k := Key{Tenant: "a"}
	fine.RecordCommitKeyed(k, mkPl(0, 20, 1))
	coarse.RecordCommitKeyed(k, mkPl(0, 20, 2))
	coarse.Advance(500)
	m := fine.Snapshot().Merge(coarse.Snapshot())
	if m.TotalReservedArea != 60 {
		t.Fatalf("merged exact total = %v, want 60", m.TotalReservedArea)
	}
	if len(m.Totals) != 1 || m.Totals[0].ReservedArea != 60 {
		t.Fatalf("merged totals = %+v, want one key with 60", m.Totals)
	}
	if m.Now != 500 {
		t.Errorf("merged now = %v, want 500 (the later clock)", m.Now)
	}
	if nil2 := (*Snapshot)(nil).Merge(nil); nil2 != nil {
		t.Fatal("nil.Merge(nil) != nil")
	}
	if s := fine.Snapshot(); s.Merge(nil) != s || (*Snapshot)(nil).Merge(s) != s {
		t.Fatal("Merge with nil must return the other side unchanged")
	}
}
