package fed

import "testing"

// Sampling cost benchmark.  BENCH_trajectory.jsonl records full tracing
// (BenchmarkShardedAdmitTraced) well over the untraced 8-shard baseline;
// head-based sampling (obs.Tracer.SetSampling) bounds that cost by
// admitting a fixed trace budget per second and routing the rest down the
// untraced fast path.

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
