package fed

import (
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
)

// Latency-plane overhead benchmarks: the phase timers ride the hottest
// path in the system, so the acceptance bar is explicit — recording on
// must cost <= 5% ns/op and ZERO extra allocs/op over recording off on
// the 8-shard plane, and recording off (nil record through
// NegotiateTimed, the plane-unset production configuration) must match
// the plain Negotiate path it wraps.  Both land in
// BENCH_trajectory.jsonl under the benchdiff gate.

// latencyOffBench is the nil-record contract: the boundary calls
// NegotiateTimed with no latency plane configured, so every Mark must be a
// nil-receiver no-op.
func latencyOffBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	plane := benchPlane(tb, 8, nil)
	return func(j core.Job) error { _, err := plane.NegotiateTimed(j, nil); return err }, plane.Observe
}

// latencyOnBench runs the full record lifecycle the qosnet boundary runs:
// Start, phase marks inside the arbitrator, End into the histograms and the
// exemplar ring.
func latencyOnBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	plane := benchPlane(tb, 8, nil)
	lp := latency.New(obs.NewRegistry())
	return func(j core.Job) error {
		rec := phase.Start(lp, 0, int64(j.ID))
		_, err := plane.NegotiateTimed(j, &rec)
		rec.End()
		return err
	}, plane.Observe
}

func BenchmarkShardedAdmitLatencyOff(b *testing.B) {
	b.Run("shards=8", func(b *testing.B) { admitLoop(b, latencyOffBench) })
}

func BenchmarkShardedAdmitLatencyOn(b *testing.B) {
	b.Run("shards=8", func(b *testing.B) { admitLoop(b, latencyOnBench) })
}
