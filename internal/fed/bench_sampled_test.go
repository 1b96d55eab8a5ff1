package fed

import (
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/telemetry"
)

// Sampling and exporter-attachment cost benchmarks.  BENCH_trajectory.jsonl
// records full tracing (BenchmarkShardedAdmitTraced) well over the untraced
// 8-shard baseline; head-based sampling (obs.Tracer.SetSampling) bounds that
// cost by admitting a fixed trace budget per second and routing the rest
// down the untraced fast path.  The telemetry exporter's contract is that
// merely being attached (OnEnd hook installed, zero subscribers) adds
// one atomic load and zero allocations to the traced hot path — gated
// by benchdiff's allocs/op rule against BENCH_trajectory.jsonl.

// BenchmarkShardedAdmitSampled is the traced 8-shard plane with the
// sampler holding admissions to 100 traces/sec: nearly every negotiate
// runs the sampled-out path (NewTrace -> 0, no arrival span, the record
// timed and rendered as nothing), so ns/op and allocs/op should sit near
// the untraced baseline, not the traced one.
func BenchmarkShardedAdmitSampled(b *testing.B) {
	b.Run("target=100", func(b *testing.B) {
		admitLoop(b, traced(8, 100))
	})
}

// BenchmarkShardedAdmitExporterIdle is BenchmarkShardedAdmitTraced with
// a telemetry exporter attached to the tracer but no subscribers
// connected: the nil-hook contract's "attached but idle" case.  Its
// allocs/op must equal the plain traced benchmark's.
func BenchmarkShardedAdmitExporterIdle(b *testing.B) {
	b.Run("shards=8", func(b *testing.B) { admitLoop(b, exporterIdleBench) })
}

func exporterIdleBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	tr := obs.NewTracer(1 << 14)
	exp := telemetry.NewExporter(telemetry.ExporterConfig{Node: "bench"}, telemetry.Sources{Tracer: tr})
	tb.Cleanup(func() { exp.Close() })
	return tracedOn(tb, 8, tr)
}
