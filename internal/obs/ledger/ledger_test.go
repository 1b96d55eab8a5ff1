package ledger

import (
	"math"
	"math/rand"
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

func TestBucketSpreading(t *testing.T) {
	l := New(Config{Capacity: 10, Width: 10, Keep: 2, Factor: 2, Tiers: 2})
	k := Key{Tenant: "a"}
	l.RecordCommitKeyed(k, mkPl(5, 20, 2)) // [5, 25) x 2 = area 40
	s := l.Snapshot()
	if got := s.TotalReservedArea; got != 40 {
		t.Fatalf("total reserved = %v, want 40", got)
	}
	if got := s.BucketedReservedArea(); got != 40 {
		t.Fatalf("bucketed reserved = %v, want 40", got)
	}
	want := map[float64]float64{0: 10, 10: 20, 20: 10}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d: %+v", len(s.Buckets), len(want), s.Buckets)
	}
	for _, b := range s.Buckets {
		if w, ok := want[b.Start]; !ok || b.ReservedArea() != w {
			t.Errorf("bucket at %v: reserved %v, want %v", b.Start, b.ReservedArea(), w)
		}
		if b.CapacityArea != 100 { // 10 procs x 10 wide
			t.Errorf("bucket at %v: capacity area %v, want 100", b.Start, b.CapacityArea)
		}
	}
}

func TestRealizedAndWaste(t *testing.T) {
	l := New(Config{Capacity: 4, Width: 50})
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

// TestRetentionPreservesIntegral drives a long randomized run through
// every retention tier and checks the invariant the tiered ring promises:
// folds trade resolution, never area.
func TestRetentionPreservesIntegral(t *testing.T) {
	l := New(Config{Capacity: 16, Width: 10, Keep: 4, Factor: 4, Tiers: 3})
	rng := rand.New(rand.NewSource(7))
	clock := 0.0
	keys := []Key{{Tenant: "a"}, {Tenant: "b"}, {Tenant: "b", Class: 1}}
	for i := 0; i < 2000; i++ {
		clock += rng.Float64() * 5
		k := keys[rng.Intn(len(keys))]
		pl := mkPl(clock+rng.Float64()*20, 1+rng.Float64()*30, 1+rng.Intn(4))
		l.RecordCommitKeyed(k, pl)
		if rng.Intn(2) == 0 {
			l.RecordCompletion(k, pl)
		}
		l.Advance(clock)
	}
	s := l.Snapshot()
	if s.Downsamples == 0 || s.AgedFolds == 0 {
		t.Fatalf("retention never ran: downsamples=%d agedFolds=%d", s.Downsamples, s.AgedFolds)
	}
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1) }
	if e := relErr(s.BucketedReservedArea(), s.TotalReservedArea); e > 1e-9 {
		t.Errorf("bucketed reserved drifted from exact total by %v", e)
	}
	if e := relErr(s.BucketedRealizedArea(), s.TotalRealizedArea); e > 1e-9 {
		t.Errorf("bucketed realized drifted from exact total by %v", e)
	}
	// The retained bucket set must stay a sorted, non-overlapping cut at
	// tier-aligned widths.
	widths := map[float64]bool{10: true, 40: true, 160: true}
	for i, b := range s.Buckets {
		if !widths[b.Width] {
			t.Errorf("bucket %d has off-tier width %v", i, b.Width)
		}
		if math.Mod(b.Start, b.Width) != 0 {
			t.Errorf("bucket %d start %v not aligned to width %v", i, b.Start, b.Width)
		}
		if i > 0 && b.Start < s.Buckets[i-1].End() {
			t.Errorf("bucket %d overlaps predecessor: [%v) after [%v, %v)",
				i, b.Start, s.Buckets[i-1].Start, s.Buckets[i-1].End())
		}
	}
}

func TestCapacityTimeline(t *testing.T) {
	l := New(Config{Capacity: 4, Width: 50})
	l.RecordCommitKeyed(Key{}, mkPl(0, 100, 1)) // materialize [0,50) and [50,100)
	l.SetCapacity(8, 50)
	s := l.Snapshot()
	if len(s.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(s.Buckets))
	}
	if s.Buckets[0].CapacityArea != 200 { // 4 x 50
		t.Errorf("bucket [0,50) capacity area = %v, want 200", s.Buckets[0].CapacityArea)
	}
	if s.Buckets[1].CapacityArea != 400 { // 8 x 50
		t.Errorf("bucket [50,100) capacity area = %v, want 400", s.Buckets[1].CapacityArea)
	}
	if s.Capacity != 8 {
		t.Errorf("snapshot capacity = %d, want 8", s.Capacity)
	}
}

func TestSetCapacityClampsMonotone(t *testing.T) {
	l := New(Config{Capacity: 4})
	l.SetCapacity(8, 10)
	l.SetCapacity(6, 5) // earlier than the last mark: restates it
	if got := l.Snapshot().Capacity; got != 6 {
		t.Fatalf("capacity = %d, want 6", got)
	}
	if marks := len(l.capMarks); marks != 2 {
		t.Fatalf("capacity marks = %d, want 2 (no out-of-order mark appended)", marks)
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
	l.SetCapacity(4, 0)
	l.BindMetrics(nil)
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
	sh.BindMetrics(nil)
	if sh.Shards() != 0 || sh.Shard(0) != nil || sh.Merged() != nil {
		t.Fatal("nil sharded ledger reported non-zero state")
	}
}

func TestDerivedSeries(t *testing.T) {
	l := New(Config{Capacity: 4, Width: 10})
	a, b := Key{Tenant: "a"}, Key{Tenant: "b"}
	pa, pb := mkPl(0, 10, 3), mkPl(10, 10, 1)
	l.RecordCommitKeyed(a, pa) // [0,10): 30 of 40
	l.RecordCommitKeyed(b, pb) // [10,20): 10 of 40
	l.RecordCompletion(a, pa)
	s := l.Snapshot()

	series := s.Series()
	if len(series) != 2 {
		t.Fatalf("series has %d points, want 2", len(series))
	}
	if series[0].Utilization != 0.75 || series[1].Utilization != 0.25 {
		t.Errorf("utilization series = %v, %v; want 0.75, 0.25", series[0].Utilization, series[1].Utilization)
	}
	if series[0].WasteArea != 0 || series[1].WasteArea != 10 {
		t.Errorf("waste series = %v, %v; want 0, 10", series[0].WasteArea, series[1].WasteArea)
	}
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("overall utilization = %v, want 0.5", got)
	}
	// Both buckets are partially reserved, so every idle unit is trapped.
	if got := s.Fragmentation(); got != 1 {
		t.Errorf("fragmentation = %v, want 1", got)
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
	cfg := Config{Capacity: 4, Width: 10}
	sh := NewSharded(cfg, 2)
	a, b := Key{Tenant: "a"}, Key{Tenant: "b"}
	sh.Shard(0).RecordCommitKeyed(a, mkPl(0, 10, 2))
	sh.Shard(1).RecordCommitKeyed(a, mkPl(0, 10, 1))
	sh.Shard(1).RecordCommitKeyed(b, mkPl(10, 10, 3))
	m := sh.Merged()
	if m.TotalReservedArea != 60 {
		t.Fatalf("merged total = %v, want 60", m.TotalReservedArea)
	}
	if got := m.BucketedReservedArea(); got != 60 {
		t.Fatalf("merged bucketed = %v, want 60", got)
	}
	if len(m.Buckets) != 2 {
		t.Fatalf("merged buckets = %d, want 2 (identical spans fold)", len(m.Buckets))
	}
	// Identical spans from distinct shards add their capacity integrals.
	if m.Buckets[0].CapacityArea != 80 {
		t.Errorf("merged capacity area = %v, want 80 (4p x 10 x 2 shards)", m.Buckets[0].CapacityArea)
	}
	if got := len(m.Shards); got != 2 {
		t.Errorf("merged shard stamps = %v, want [0 1]", m.Shards)
	}
	if len(m.Totals) != 2 || m.Totals[0].ReservedArea != 30 || m.Totals[1].ReservedArea != 30 {
		t.Errorf("merged totals = %+v, want a=30 b=30", m.Totals)
	}
}

// TestMergeContainment merges shards whose clocks diverged: one shard's
// aged, coarse buckets must absorb the other's fine buckets covering the
// same span (grids nest, so overlap implies containment).
func TestMergeContainment(t *testing.T) {
	cfg := Config{Capacity: 4, Width: 10, Keep: 2, Factor: 4, Tiers: 2}
	fine := New(cfg)
	coarse := New(Config{Capacity: 4, Width: 10, Keep: 2, Factor: 4, Tiers: 2, Shard: 1})
	k := Key{Tenant: "a"}
	fine.RecordCommitKeyed(k, mkPl(0, 20, 1))   // tier-0 buckets [0,10) [10,20)
	coarse.RecordCommitKeyed(k, mkPl(0, 20, 2)) // same span...
	coarse.Advance(500)                         // ...then folded coarse (or aged)
	m := fine.Snapshot().Merge(coarse.Snapshot())
	if got, want := m.BucketedReservedArea(), 60.0; got != want {
		t.Fatalf("merged bucketed+aged = %v, want %v", got, want)
	}
	if m.TotalReservedArea != 60 {
		t.Fatalf("merged exact total = %v, want 60", m.TotalReservedArea)
	}
	for i := 1; i < len(m.Buckets); i++ {
		if m.Buckets[i].Start < m.Buckets[i-1].End() {
			t.Fatalf("merged buckets overlap at %d: %+v", i, m.Buckets)
		}
	}
	if nil2 := (*Snapshot)(nil).Merge(nil); nil2 != nil {
		t.Fatal("nil.Merge(nil) != nil")
	}
	if s := fine.Snapshot(); s.Merge(nil) != s || (*Snapshot)(nil).Merge(s) != s {
		t.Fatal("Merge with nil must return the other side unchanged")
	}
}
