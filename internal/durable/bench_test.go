package durable

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/workload"
)

// benchLog builds a committed event log of n records (alternating observe
// and admit, the recovery-dominant mix) plus the genesis state it applies
// to.  The log is deterministic so ns/op and allocs/op are comparable
// across runs.
func benchLog(n int) (State, []Record) {
	gen, err := genesis(16, 0)
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
			Kind: KindAdmit, LSN: lsn, JobID: i + 1,
			Chain: i % 3, Quality: 0.5 + float64(i%4)*0.125,
			Tunable: i%2 == 0, Tenant: "bench", Class: i % 3,
			// An admit per 0.25 time units, each spanning 0.8 on at most
			// two processors, so the synthetic log never over-reserves.
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
			if _, err := replayState(gen, recs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := replayState(gen, recs)
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
	st, err := replayState(gen, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := appendSnapshot(nil, &st); len(buf) == 0 {
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
		// No cadence checkpoint inside a run: one per 262 144 records keeps
		// the fold off the benchmark's second core and the segment the
		// in-memory filesystem has to grow under 7 MB.
		Store: StoreOptions{Sync: syncNever, SnapshotEvery: 1 << 18},
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

// BenchmarkPlaneSnapshot measures a forced checkpoint, seal and wait — the
// cut, the fold of the grant list, prune, encode, the temp file, two
// directory syncs and the removals, all in memory — at the same two live-set
// sizes: what a checkpoint costs, now that no admission pays it.
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

// BenchmarkPlaneCallers measures a grant — written under the plane lock,
// flushed past it — from 1, 2, 4 and 8 closed-loop callers on the real
// filesystem under SyncAlways: ns/op is the plane's grant period at that
// concurrency, which is the device's fsync divided by how many grants a
// flush releases.  Every op is a grant: job i has a stretch of its own,
// and the clock trails 1024 jobs behind, so the live set holds.  The host's
// fsync has phases (bench/LADDER.md), so compare alternating runs of two
// trees in one sitting, never a run with a committed row.
func BenchmarkPlaneCallers(b *testing.B) {
	for _, callers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			p, _, err := OpenPlane(Config{
				FS: vfs.OS{}, Dir: b.TempDir(), Procs: 64,
				Store: StoreOptions{Sync: SyncAlways},
			})
			if err != nil {
				b.Fatal(err)
			}
			tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)); i <= b.N; i = int(next.Add(1)) {
						p.Observe(40 * float64(i-1024))
						if _, err := p.Negotiate(tmpl.Job(i, 40*float64(i), workload.Tunable)); err != nil {
							b.Errorf("job %d: %v", i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPlaneMetrics measures what the durability instruments cost a
// grant: a one-shard plane on the in-memory filesystem under syncNever,
// every op a grant with the clock trailing 1024 jobs behind as in
// BenchmarkPlaneCallers, with Config.Metrics nil (off) and set (on).
// on minus off is the instruments' share of the grant.
func BenchmarkPlaneMetrics(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var met *Metrics
			if on {
				met = NewMetrics(obs.NewRegistry())
			}
			p, _, err := OpenPlane(Config{
				FS: vfs.NewMem(), Dir: "log", Procs: 64, Metrics: met,
				// One checkpoint per 262 144 records, as in benchPlane.
				Store: StoreOptions{Sync: syncNever, SnapshotEvery: 1 << 18},
			})
			if err != nil {
				b.Fatal(err)
			}
			tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				p.Observe(40 * float64(i-1024))
				if _, err := p.Negotiate(tmpl.Job(i, 40*float64(i), workload.Tunable)); err != nil {
					b.Fatalf("job %d: %v", i, err)
				}
			}
			b.StopTimer()
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPlaneCheckpointStall measures the call that carries a seal — a
// clock report, the SnapshotEvery-th record since the last one — on a plane
// holding about `grants` live grants with a quarter of them turning over
// between seals (deep_backlog's share): the new ones ride in the delta, the
// elapsed ones are what the call collects from the map.  One op is one such
// call; p50-ns/op and max-ns/op are over the run's seals (use -benchtime
// 200x or more).  Its neighbours cost what BenchmarkPlaneObserve reads, and
// what the checkpoint costs off the path is BenchmarkPlaneSnapshot's: seal
// plus wait.
func BenchmarkPlaneCheckpointStall(b *testing.B) {
	for _, grants := range []int{64, 4096} {
		b.Run(fmt.Sprintf("grants=%d", grants), func(b *testing.B) {
			churn := grants / 4
			p, _, err := OpenPlane(Config{
				FS: vfs.NewMem(), Dir: "log", Procs: 4 * grants,
				Store: StoreOptions{Sync: syncNever, SnapshotEvery: 2 * churn},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Job i is released at time 8i and reserved for a hundred units or
			// so from there: moved up by 8 for each job admitted, the clock
			// leaves as many to run out.
			tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
			next, now := 0, 0.0
			admit := func(n int) {
				for ; n > 0; n-- {
					if _, err := p.Negotiate(tmpl.Job(next, 8*float64(next), workload.Tunable)); err != nil {
						b.Fatalf("job %d: %v", next, err)
					}
					next++
				}
			}
			admit(grants)
			if err := p.Snapshot(); err != nil {
				b.Fatal(err)
			}
			stalls := make([]time.Duration, 0, b.N)
			// No allocation count: the checkpoint's goroutine allocates in
			// or out of the timed call as the scheduler has it.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				admit(churn)
				for k := 1; k < churn; k++ {
					now += 8
					p.Observe(now)
				}
				if err := p.WaitCheckpoint(); err != nil {
					b.Fatal(err)
				}
				last := p.store.ckpt
				now += 8
				b.StartTimer()
				start := time.Now()
				p.Observe(now)
				stalls = append(stalls, time.Since(start))
				if p.store.ckpt == last {
					b.Fatal("the timed call carried no seal")
				}
			}
			b.StopTimer()
			slices.Sort(stalls)
			b.ReportMetric(float64(stalls[len(stalls)/2]), "p50-ns/op")
			b.ReportMetric(float64(stalls[len(stalls)-1]), "max-ns/op")
			if live := len(p.Grants()); live < grants*3/4 || live > grants*5/4+30 {
				b.Fatalf("%d grants live at the end: the live set was meant to hold at about %d", live, grants)
			}
		})
	}
}
