package fed

import (
	"testing"

	"milan/internal/core"
	"milan/internal/obs/ledger"
	"milan/internal/qos"
)

// Ledger-cost benchmarks.  The contract mirrors the tracer's: a plane
// with no observer pays exactly one nil comparison per committed
// mutation, so ledger=off must sit within noise of
// BenchmarkShardedAdmit.  ledger=on quantifies the opt-in cost of exact
// per-tenant accounting on every committed mutation, reached through the
// plane's one feed (ledger.DecisionObserver).
// CI's benchdiff gate tracks both series in BENCH_trajectory.jsonl.

// ledgerOnBench keeps one ledger per shard and routes each decision to the
// deciding shard's by d.Shard, so every ledger is mutated under its own
// shard's lock.
func ledgerOnBench(tb testing.TB) (func(core.Job) error, func(float64)) {
	var feeds [8]func(qos.Decision)
	plane := benchPlane(tb, len(feeds), func(cfg *Config) {
		cfg.Observer = func(d qos.Decision) { feeds[d.Shard](d) }
	})
	for i, sh := range plane.shards {
		feeds[i] = ledger.New(ledger.Config{Capacity: sh.Procs()}).DecisionObserver(nil)
	}
	return func(j core.Job) error { _, err := plane.Negotiate(j); return err }, plane.Observe
}

func BenchmarkShardedAdmitLedgerOff(b *testing.B) { admitLoop(b, planeBench(8, nil)) }

func BenchmarkShardedAdmitLedgerOn(b *testing.B) { admitLoop(b, ledgerOnBench) }
