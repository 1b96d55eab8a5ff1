package durable

import (
	"fmt"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/workload"
)

// benchLog builds a committed event log of n records (alternating observe
// and admit, the recovery-dominant mix) plus the genesis state it applies
// to.  The log is deterministic so ns/op and allocs/op are comparable
// across runs.
func benchLog(n int) (State, []Record) {
	gen, err := Genesis(16, 2, 0)
	if err != nil {
		panic(err)
	}
	recs := make([]Record, 0, n)
	now := 0.0
	lsn := uint64(0)
	for i := 0; len(recs) < n; i++ {
		now += 0.25
		lsn++
		recs = append(recs, Record{Kind: KindObserve, LSN: lsn, Now: now})
		if len(recs) == n {
			break
		}
		lsn++
		start := now
		recs = append(recs, Record{
			Kind: KindAdmit, LSN: lsn, Shard: i % 2, JobID: i + 1,
			Chain: i % 3, Quality: 0.5 + float64(i%4)*0.125,
			Tunable: i%2 == 0, Tenant: "bench", Class: i % 3,
			// Each shard sees one admit per 1.0 time units and each job
			// spans 0.8, so the synthetic log never over-reserves.
			Tasks: []core.TaskPlacement{
				{Task: 0, Procs: 1 + i%2, Start: start, Finish: start + 0.4},
				{Task: 1, Procs: 1, Start: start + 0.4, Finish: start + 0.8},
			},
		})
	}
	return gen, recs
}

// BenchmarkReplay measures log replay — the recovery hot path — at 1k,
// 10k and 100k committed records.  Replay cost bounds restart downtime,
// so this is the number the snapshot cadence trades against.
func BenchmarkReplay(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			gen, recs := benchLog(n)
			// One untimed warmup so lazy one-time allocations don't smear
			// a +-1 jitter into allocs/op at low iteration counts.
			if _, err := replayState(gen, recs, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := replayState(gen, recs, nil)
				if err != nil {
					b.Fatal(err)
				}
				if st.LSN != recs[len(recs)-1].LSN {
					b.Fatalf("replay stopped at lsn %d", st.LSN)
				}
			}
		})
	}
}

// BenchmarkSnapshotEncode measures snapshot serialization, the other half
// of the recovery cost model (write amplification per compaction).
func BenchmarkSnapshotEncode(b *testing.B) {
	gen, recs := benchLog(10_000)
	st, err := replayState(gen, recs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := EncodeSnapshot(&st); len(buf) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// benchPlane opens a 1-shard plane on the in-memory filesystem holding
// `grants` live grants, all admitted at time 0 on a machine wide enough to
// start every one at once — so none elapses while the clock creeps forward
// and the benchmarks below see a constant live set.
func benchPlane(b *testing.B, grants int) *Plane {
	b.Helper()
	p, _, err := OpenPlane(Config{
		FS: vfs.NewMem(), Dir: "log", Procs: 4 * grants,
		// A cadence snapshot bills its walk of the grant set to whichever
		// Observe tripped it: one per 262 144 records is ~5 ns an op at
		// 4 096 grants, and keeps the segment the in-memory filesystem
		// has to grow under 7 MB.
		Store: StoreOptions{Sync: SyncNever, SnapshotEvery: 1 << 18},
	})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	for i := 0; i < grants; i++ {
		if _, err := p.Negotiate(tmpl.Job(i, 0, workload.Tunable)); err != nil {
			b.Fatalf("job %d: %v", i, err)
		}
	}
	return p
}

// BenchmarkPlaneObserve measures a clock report against a plane holding 64
// and 4096 live grants: the served path pays one per eight admissions, and
// its cost must not follow the backlog.
func BenchmarkPlaneObserve(b *testing.B) {
	for _, grants := range []int{64, 4096} {
		b.Run(fmt.Sprintf("grants=%d", grants), func(b *testing.B) {
			p := benchPlane(b, grants)
			b.ReportAllocs()
			b.ResetTimer()
			now := 0.0
			for i := 0; i < b.N; i++ {
				now += 1e-9
				p.Observe(now)
			}
			b.StopTimer()
			if got := len(p.Grants()); got != grants {
				b.Fatalf("%d of %d grants still live: the live set was meant to hold", got, grants)
			}
		})
	}
}

// BenchmarkPlaneSnapshot measures a forced compaction — export (the one
// walk and sort of the grant set), prune, encode, four in-memory flushes —
// at the same two live-set sizes.
func BenchmarkPlaneSnapshot(b *testing.B) {
	for _, grants := range []int{64, 4096} {
		b.Run(fmt.Sprintf("grants=%d", grants), func(b *testing.B) {
			p := benchPlane(b, grants)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
