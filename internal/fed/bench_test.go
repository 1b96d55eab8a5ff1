package fed

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

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

// admitLoop drives negotiations from all benchmark goroutines through the
// given arbitrator functions.
func admitLoop(b *testing.B, negotiate func(core.Job) error, observe func(float64)) {
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

func BenchmarkMonolithAdmit(b *testing.B) {
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: benchProcs})
	if err != nil {
		b.Fatal(err)
	}
	admitLoop(b,
		func(j core.Job) error { _, err := arb.Negotiate(j); return err },
		arb.Observe)
}

func BenchmarkShardedAdmit(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			plane, err := New(Config{Procs: benchProcs, Shards: shards, ProbeK: 2})
			if err != nil {
				b.Fatal(err)
			}
			admitLoop(b,
				func(j core.Job) error { _, err := plane.Negotiate(j); return err },
				plane.Observe)
		})
	}
}

// TestWriteBenchFed regenerates BENCH_fed.json at the repository root when
// WRITE_BENCH_FED=1 (CI's bench job, or a developer refreshing the
// checked-in numbers).  It records ns/op for the monolith and for each
// shard count, plus the ratio of the monolith's cost to the 8-shard
// plane's (below 1 since admission cost stopped growing with profile
// size: see EXPERIMENTS.md, EXT-S throughput).
func TestWriteBenchFed(t *testing.T) {
	if os.Getenv("WRITE_BENCH_FED") == "" {
		t.Skip("set WRITE_BENCH_FED=1 to regenerate BENCH_fed.json")
	}
	type entry struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	var out struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Procs      int     `json:"pool_procs"`
		ProbeK     int     `json:"probe_k"`
		Monolith   entry   `json:"monolith"`
		Sharded    []entry `json:"sharded"`
		Speedup8   float64 `json:"speedup_8_shards"`
	}
	out.GoMaxProcs = runtime.GOMAXPROCS(0)
	out.Procs = benchProcs
	out.ProbeK = 2

	mono := testing.Benchmark(BenchmarkMonolithAdmit)
	out.Monolith = entry{Name: "BenchmarkMonolithAdmit", NsPerOp: float64(mono.NsPerOp()), AllocsPerOp: mono.AllocsPerOp()}

	var ns8 float64
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		r := testing.Benchmark(func(b *testing.B) {
			plane, err := New(Config{Procs: benchProcs, Shards: shards, ProbeK: 2})
			if err != nil {
				b.Fatal(err)
			}
			admitLoop(b,
				func(j core.Job) error { _, err := plane.Negotiate(j); return err },
				plane.Observe)
		})
		e := entry{Name: fmt.Sprintf("BenchmarkShardedAdmit/shards=%d", shards), NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
		out.Sharded = append(out.Sharded, e)
		if shards == 8 {
			ns8 = e.NsPerOp
		}
	}
	if ns8 > 0 {
		out.Speedup8 = out.Monolith.NsPerOp / ns8
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile("../../BENCH_fed.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("monolith %.0f ns/op, 8 shards %.0f ns/op, speedup %.2fx", out.Monolith.NsPerOp, ns8, out.Speedup8)
}
