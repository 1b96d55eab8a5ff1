package fed

import (
	"testing"

	"milan/internal/core"
	"milan/internal/obs/ledger"
)

// Ledger-cost benchmarks.  The contract mirrors the tracer's: a plane
// with no observer pays exactly one nil comparison per committed
// mutation, so ledger=off must sit within noise of
// BenchmarkShardedAdmit.  ledger=on quantifies the opt-in cost of exact
// per-tenant accounting on every committed mutation, reached through the
// plane's one feed (ledger.DecisionObserver).
// CI's benchdiff gate tracks both series in BENCH_trajectory.jsonl.

func ledgerOnBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	led := ledger.NewSharded(ledger.Config{Capacity: benchProcs}, 8)
	plane := benchPlane(tb, 8, func(cfg *Config) { cfg.Observer = led.DecisionObserver(nil) })
	for i, procs := range plane.ShardProcs() {
		led.Shard(i).SetCapacity(procs)
	}
	return func(j core.Job) error { _, err := plane.Negotiate(j); return err }, plane.Observe
}

func BenchmarkShardedAdmitLedgerOff(b *testing.B) { admitLoop(b, planeBench(8, nil)) }

func BenchmarkShardedAdmitLedgerOn(b *testing.B) { admitLoop(b, ledgerOnBench) }
