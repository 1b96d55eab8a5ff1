package fed

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/qos"
)

// The admission-throughput benchmarks measure the cost the sharded plane
// exists to remove: every negotiation on the monolithic arbitrator
// serializes on one mutex, while the plane spreads admissions over
// independent per-shard locks.  The workload is a steady stream of small
// single-chain jobs at moderate offered load, with the clock advanced
// (and elapsed history folded) every few hundred admissions so the
// profiles stay small and per-op cost is steady-state.

const (
	benchProcs   = 64
	benchGap     = 0.5 // mean inter-arrival: ~50% offered load
	benchTask    = 2
	benchDur     = 8.0
	benchLaxity  = 1024.0
	benchTrimEvr = 256
)

func benchJob(i int64) core.Job {
	r := float64(i) * benchGap
	return core.Job{ID: int(i), Release: r, Chains: []core.Chain{{
		Quality: 1,
		Tasks: []core.Task{
			{Procs: benchTask, Duration: benchDur, Deadline: r + benchLaxity, Quality: 1},
		},
	}}}
}

// admitBench builds what one admission benchmark negotiates against, fresh
// for every run (planes, tracers and ledgers are stateful).
type admitBench func(tb testing.TB) (negotiate func(core.Job) error, observe func(float64))

// admitLoop drives negotiations from all benchmark goroutines.
func admitLoop(b *testing.B, bench admitBench) {
	negotiate, observe := bench(b)
	var idx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := idx.Add(1)
			job := benchJob(i)
			_ = negotiate(job)
			if i%benchTrimEvr == 0 {
				observe(job.Release - 2*benchLaxity)
			}
		}
	})
}

func monolithBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: benchProcs})
	if err != nil {
		tb.Fatal(err)
	}
	return func(j core.Job) error { _, err := arb.Negotiate(j); return err }, arb.Observe
}

// planeBench negotiates on the benchmark plane at the given shard count,
// with whatever configure hangs on it (nil: nothing).
func planeBench(shards int, configure func(*Config)) admitBench {
	return func(tb testing.TB) (func(core.Job) error, func(float64)) {
		plane := benchPlane(tb, shards, configure)
		return func(j core.Job) error { _, err := plane.Negotiate(j); return err }, plane.Observe
	}
}

func benchPlane(tb testing.TB, shards int, configure func(*Config)) *Arbitrator {
	tb.Helper()
	cfg := Config{Procs: benchProcs, Shards: shards, ProbeK: 2}
	if configure != nil {
		configure(&cfg)
	}
	plane, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return plane
}

func BenchmarkMonolithAdmit(b *testing.B) { admitLoop(b, monolithBench) }

func BenchmarkShardedAdmit(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			admitLoop(b, planeBench(shards, nil))
		})
	}
}

// benchRow names one leaf benchmark the way `go test -bench` prints it,
// less the -GOMAXPROCS suffix: the name benchdiff gates it under.
type benchRow struct {
	name  string
	bench admitBench
}

// appendTrajectory measures each row and appends it to
// BENCH_trajectory.jsonl — the one bench ledger, in cmd/benchdiff's row
// schema — under a note made of label (the commit and machine, as the
// caller knows them) and the measuring conditions.  ns/op and allocs/op
// are what benchdiff gates: the median by ns/op of five admitLoop runs.
// p99_ns_per_op, which `go test -bench` cannot give, comes from a second,
// single-goroutine pass over a fresh plane that times every negotiation;
// it is what junctiond -latency-envelope arms the regression sentinel from.
func appendTrajectory(t *testing.T, label string, rows []benchRow) {
	const runs, timed = 5, 100_000
	f, err := os.OpenFile("../../BENCH_trajectory.jsonl", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	note := fmt.Sprintf("%s; median of %d x %v, p99 over %d timed admissions on one goroutine, %s %s/%s GOMAXPROCS=%d, %s",
		label, runs, benchTime(), timed, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0),
		time.Now().UTC().Format("2006-01-02"))
	for _, row := range rows {
		results := make([]testing.BenchmarkResult, runs)
		for i := range results {
			results[i] = testing.Benchmark(func(b *testing.B) { admitLoop(b, row.bench) })
		}
		slices.SortFunc(results, func(x, y testing.BenchmarkResult) int { return int(x.NsPerOp() - y.NsPerOp()) })
		med := results[runs/2]

		negotiate, observe := row.bench(t)
		durs := make([]time.Duration, timed)
		for i := range durs {
			job := benchJob(int64(i + 1))
			start := time.Now()
			_ = negotiate(job)
			durs[i] = time.Since(start)
			if (i+1)%benchTrimEvr == 0 {
				observe(job.Release - 2*benchLaxity)
			}
		}
		slices.Sort(durs)
		p99 := durs[timed*99/100]

		line, err := json.Marshal(struct {
			Name        string  `json:"name"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
			P99NsPerOp  float64 `json:"p99_ns_per_op"`
			Note        string  `json:"note"`
		}{row.name, float64(med.NsPerOp()), med.AllocsPerOp(), float64(p99), note})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-44s %6d ns/op [%d, %d] %3d allocs/op  p99 %v",
			row.name, med.NsPerOp(), results[0].NsPerOp(), results[runs-1].NsPerOp(), med.AllocsPerOp(), p99)
	}
}

// benchTime is how long each of appendTrajectory's runs lasts: the
// -test.benchtime in force (1s unless the command line says otherwise).
func benchTime() string {
	if f := flag.Lookup("test.benchtime"); f != nil {
		return f.Value.String()
	}
	return "1s"
}

// TestWriteBenchFed re-takes the plain admission rows — the monolith and the
// plane at 1, 2, 4 and 8 shards — when WRITE_BENCH_FED is set, its value
// being the label the rows are recorded under (commit, machine); see
// EXPERIMENTS.md, EXT-S throughput, for how they read against each other.
func TestWriteBenchFed(t *testing.T) {
	label := os.Getenv("WRITE_BENCH_FED")
	if label == "" {
		t.Skip(`set WRITE_BENCH_FED="<commit> <machine>" to append the admission rows to BENCH_trajectory.jsonl`)
	}
	rows := []benchRow{{"BenchmarkMonolithAdmit", monolithBench}}
	for _, shards := range []int{1, 2, 4, 8} {
		rows = append(rows, benchRow{fmt.Sprintf("BenchmarkShardedAdmit/shards=%d", shards), planeBench(shards, nil)})
	}
	appendTrajectory(t, label, rows)
}
