package fed

import (
	"fmt"
	"os"
	"testing"

	"milan/internal/obs"
)

// Tracing-cost benchmarks for the predictability auditor.  The contract
// is that the span plumbing is free when off — a sharded plane with no
// tracer bound pays exactly one nil pointer comparison per negotiation —
// and cheap when on (one root + route span and a plan/reserve span per
// probe/commit, all landing in a fixed-size ring).
//
// BenchmarkShardedAdmit (bench_test.go) is the untraced baseline;
// BenchmarkShardedAdmitTraced quantifies the opt-in cost.  Both are rows of
// BENCH_trajectory.jsonl, where the overhead is the ratio of the two.

// traced hangs a tracer on the benchmark plane: every admission traced, or,
// with a positive target, head-sampled down to that many traces a second.
func traced(sampleTarget float64) func(*Config) {
	return func(cfg *Config) {
		cfg.Tracer = obs.NewTracer(1 << 14)
		if sampleTarget > 0 {
			cfg.Tracer.SetSampling(sampleTarget, nil)
		}
	}
}

func BenchmarkShardedAdmitTraced(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			admitLoop(b, planeBench(shards, traced(0)))
		})
	}
}

// TestWriteBenchSLO re-takes the rows that price the instrumentation an
// admission can carry — traced, head-sampled, phase-timed, ledgered, each
// next to its off twin — when WRITE_BENCH_SLO is set (to the label the rows
// are recorded under, as for TestWriteBenchFed).  The untraced baseline they
// read against is TestWriteBenchFed's BenchmarkShardedAdmit/shards=8.
func TestWriteBenchSLO(t *testing.T) {
	label := os.Getenv("WRITE_BENCH_SLO")
	if label == "" {
		t.Skip(`set WRITE_BENCH_SLO="<commit> <machine>" to append the instrumentation rows to BENCH_trajectory.jsonl`)
	}
	appendTrajectory(t, label, []benchRow{
		{"BenchmarkShardedAdmitTraced/shards=1", planeBench(1, traced(0))},
		{"BenchmarkShardedAdmitTraced/shards=8", planeBench(8, traced(0))},
		{"BenchmarkShardedAdmitSampled/target=100", planeBench(8, traced(100))},
		{"BenchmarkShardedAdmitExporterIdle/shards=8", exporterIdleBench},
		{"BenchmarkShardedAdmitLatencyOff/shards=8", latencyOffBench},
		{"BenchmarkShardedAdmitLatencyOn/shards=8", latencyOnBench},
		{"BenchmarkShardedAdmitLedgerOff", planeBench(8, nil)},
		{"BenchmarkShardedAdmitLedgerOn", ledgerOnBench},
	})
}
