package obs

import (
	"math"
	"sync/atomic"
)

// Head-based adaptive trace sampling.  Tracing every admission roughly
// doubles the sharded hot path (BENCH_trajectory.jsonl:
// BenchmarkShardedAdmitTraced over BenchmarkShardedAdmit); sampling keeps
// the span stream representative while bounding that cost.  The decision is
// made at the head (NewTrace): a sampled-out request returns trace ID 0
// and flows through the untraced fast path everywhere downstream —
// every Start on a zero trace is the nil-span no-op — so the sampled-out
// cost is one atomic pointer load plus the admission counter.

// sampler is one immutable sampling configuration plus its rolling
// one-second admission window.  Swapped wholesale via an atomic pointer
// so NewTrace reads a consistent (target, window) pair with one load.
type sampler struct {
	target   float64       // max traces admitted per window
	winStart atomic.Uint64 // float64 bits of the current window's start
	admitted atomic.Int64  // traces admitted in the current window
}

// admit decides one head sample at clock time now.
func (s *sampler) admit(now float64) bool {
	for {
		wsBits := s.winStart.Load()
		if now-math.Float64frombits(wsBits) < 1 {
			break
		}
		// Window expired: one winner resets it; losers re-read.
		if s.winStart.CompareAndSwap(wsBits, math.Float64bits(now)) {
			s.admitted.Store(0)
			break
		}
	}
	return float64(s.admitted.Add(1)) <= s.target
}

// SetSampling enables head-based adaptive sampling: NewTrace admits at
// most targetPerSec traces per one-second window of the tracer's clock
// and returns 0 — the untraced fast path — for the rest.  targetPerSec
// <= 0 disables sampling (every NewTrace mints a trace).  Safe to call
// concurrently with NewTrace.
func (t *Tracer) SetSampling(targetPerSec float64) {
	if t == nil {
		return
	}
	if targetPerSec <= 0 {
		t.smp.Store(nil)
		return
	}
	s := &sampler{target: targetPerSec}
	s.winStart.Store(math.Float64bits(t.now()))
	t.smp.Store(s)
}

// SeedIDs offsets the tracer's trace and span ID counters so IDs minted
// by different processes never collide when their spans are merged by a
// telemetry aggregator.  base must be distinct per process and leave
// room below the next seed for the per-process sequence — a node-name
// hash in the high 32 bits (e.g. fnv32(node) << 32) is the convention
// used by junctiond and milanmon.  Call before minting any IDs.
func (t *Tracer) SeedIDs(base uint64) {
	if t == nil {
		return
	}
	t.traces.Store(base)
	t.ids.Store(base)
}
