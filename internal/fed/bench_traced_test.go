package fed

import (
	"fmt"
	"os"
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
)

// Tracing-cost benchmarks for the predictability auditor.  The plane is
// handed one instrument, the request's phase record; tracing is what the
// request's owner does around the call — mint the trace, open the arrival
// span, render the finished record as its children — so it is free when off
// (a nil record: no marks, no spans) and cheap when on (one arrival span and
// a child per phase that took time, all landing in a fixed-size ring).
//
// BenchmarkShardedAdmit (bench_test.go) is the untraced baseline;
// BenchmarkShardedAdmitTraced quantifies the opt-in cost.  Both are rows of
// BENCH_trajectory.jsonl, where the overhead is the ratio of the two.

// tracedOn negotiates on the benchmark plane the way the owner of a traced
// request — the qosnet server — does.
func tracedOn(tb testing.TB, shards int, tr *obs.Tracer) (func(core.Job) error, func(float64)) {
	plane := benchPlane(tb, shards, nil)
	return func(j core.Job) error {
		trace := tr.NewTrace()
		root := tr.Start(trace, 0, "bench.negotiate", obs.StageArrival, j.ID)
		j.Trace, j.Span = uint64(trace), uint64(root.ID())
		rec := phase.Start(nil, j.Trace, int64(j.ID))
		g, err := plane.NegotiateTimed(j, &rec)
		rec.End()
		root.EndAdmission(&rec, g, err)
		return err
	}, plane.Observe
}

// traced is tracedOn with a tracer of its own: every admission traced, or,
// with a positive target, head-sampled down to that many traces a second.
func traced(shards int, sampleTarget float64) admitBench {
	return func(tb testing.TB) (func(core.Job) error, func(float64)) {
		tr := obs.NewTracer(1 << 14)
		if sampleTarget > 0 {
			tr.SetSampling(sampleTarget)
		}
		return tracedOn(tb, shards, tr)
	}
}

func BenchmarkShardedAdmitTraced(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			admitLoop(b, traced(shards, 0))
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
		{"BenchmarkShardedAdmitTraced/shards=1", traced(1, 0)},
		{"BenchmarkShardedAdmitTraced/shards=8", traced(8, 0)},
		{"BenchmarkShardedAdmitSampled/target=100", traced(8, 100)},
		{"BenchmarkShardedAdmitLatencyOff/shards=8", latencyOffBench},
		{"BenchmarkShardedAdmitLatencyOn/shards=8", latencyOnBench},
		{"BenchmarkShardedAdmitLedgerOff", planeBench(8, nil)},
		{"BenchmarkShardedAdmitLedgerOn", ledgerOnBench},
	})
}
