// Package fed is the system-wide QoS arbitrator (Section 3 of the paper):
// the one admission plane every production path builds — junctiond (under
// the durable plane), the Fig-5/6 experiments, the campaign, tunesim, the
// examples and the milan facade — one core.Scheduler behind one lock.  It
// makes no routing decision and keeps no routing signal (NegotiateTimed,
// shard.routed), performs exactly the reference qos.Arbitrator's scheduler
// calls in exactly its order, and costs what it costs — decisions and
// statistics are bitwise identical, allocations equal; fed_test.go and the
// experiments' TestRunMatchesTheReference pin both.  Its capacity follows
// the machine one processor at a time (SetTotalCapacity, AttachBroker) and
// never preempts a committed reservation.
//
// Config.Shards > 1 still partitions the pool across independently locked
// shards behind a best-of-k router: candidate shards are pre-filtered by a
// cached load signal (future reserved area per processor), a real plan is
// computed on each of the k probed shards, and the job commits to the
// winner under the paper's tie-break — earliest finish, then higher
// utilization over [release, finish], then the lexicographically smaller
// cumulative resource prefix.  Sharding lost on the served path
// (BenchmarkServedConnections in internal/durable: two shards admitted less
// and were not faster), and the router's one remaining user is the served
// benchmark's fed_s8 rung; ROADMAP item 25b removes both.
package fed

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"milan/internal/core"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/resbroker"
)

// Config configures a federated admission plane.
type Config struct {
	// Procs is the total machine size (required).
	Procs int
	// Shards is the number of partitions (default 1).  Each shard must
	// hold at least one processor, so Shards <= Procs.  Only the served
	// benchmark's fed_s8 rung sets more than one (ROADMAP 25b).
	Shards int
	// ProbeK is how many least-loaded shards receive a real planning probe
	// per negotiation (default 2, clamped to [1, Shards]).
	ProbeK int
	// Options is the per-shard scheduler policy; nil means the paper's
	// defaults.  A Diagnosis sink set here receives a rejection explanation
	// for every failed planning pass on every shard, stamped, at two shards
	// and up, with the shard id (it may be called concurrently from
	// different shards, and may fire for losing probes of jobs that
	// ultimately commit elsewhere — the per-shard truth, not the router
	// verdict).  A one-shard plane routes nothing and leaves the stamp at
	// -1, as the reference arbitrator does.
	Options *core.Options
	// Observer, if set, is the plane's one feed: every shard calls it,
	// under its own lock, at the point it commits a mutation — a
	// reservation (qos.KindAdmitted), a counted rejection
	// (qos.KindRejected), a clock advance (qos.KindClock), a processor
	// count change (qos.KindResize) — so the stream is, per shard, in
	// commit order, and kind for kind what the durable plane journals.
	// Everything that accounts for decisions (the journal, the
	// utilization ledger) chains onto it; everything else is pulled from
	// the plane's accessors.  The callback must not call back into the
	// plane.  A rejection is a shard's verdict, not the router's: with
	// concurrent callers on two or more shards a job whose commit lost its
	// race may be rejected by one shard and admitted by the next.  nil
	// builds nothing: the admission path allocates what it does unobserved.
	Observer func(qos.Decision)
}

// planKey is the cross-shard tie-break key for a planned placement: the
// shard-local chainKey fields that are comparable across shards (quality
// and area are already folded into the per-shard chain choice; across
// shards the paper ordering is finish, then utilization, then resource
// prefix).
type planKey struct {
	finish float64
	util   float64
	prefix []float64
}

// betterKey reports whether a strictly beats b under the paper's ordering,
// with the same Eps-tolerant comparisons the scheduler uses.
// On full ties the incumbent wins, so iterating candidates in load order
// deterministically favors the less-loaded shard.
func betterKey(a, b planKey) bool {
	if !feq(a.finish, b.finish) {
		return a.finish < b.finish
	}
	if !feq(a.util, b.util) {
		return a.util > b.util
	}
	return comparePrefix(a.prefix, b.prefix) < 0
}

func feq(a, b float64) bool {
	d := a - b
	return d <= core.Eps && d >= -core.Eps
}

// comparePrefix mirrors core's cumulative-resource prefix order.
func comparePrefix(a, b []float64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !feq(a[i], b[i]) {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Arbitrator is the QoS arbitrator: one shard, or a router over several.
// It is safe for concurrent use.
type Arbitrator struct {
	shards  []*shard
	probeK  int
	nowBits atomic.Uint64
}

// New builds a federated arbitrator partitioning cfg.Procs processors
// evenly across cfg.Shards shards (the first Procs mod Shards shards hold
// one extra).
func New(cfg Config) (*Arbitrator, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("fed: plane needs at least 1 processor, got %d", cfg.Procs)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || shards > cfg.Procs {
		return nil, fmt.Errorf("fed: %d shards for %d processors (need 1 <= shards <= procs)", shards, cfg.Procs)
	}
	k := cfg.ProbeK
	if k == 0 {
		k = 2
	}
	if k < 1 {
		k = 1
	}
	if k > shards {
		k = shards
	}
	a := &Arbitrator{probeK: k}
	base, rem := cfg.Procs/shards, cfg.Procs%shards
	for i := 0; i < shards; i++ {
		procs := base
		if i < rem {
			procs++
		}
		opts := cfg.Options
		if opts != nil && opts.Diagnosis != nil && shards > 1 {
			// Wrap the plane-wide diagnosis sink per shard so every
			// emitted diagnosis carries the shard it was computed on.
			o := *opts
			shardID, sink := i, opts.Diagnosis
			o.Diagnosis = func(d *core.PlanDiagnosis) {
				d.Shard = shardID
				sink(d)
			}
			opts = &o
		}
		sh := newShard(i, procs, opts, shards > 1, cfg.Observer)
		sh.mu.Lock()
		sh.refreshLoadLocked()
		sh.mu.Unlock()
		a.shards = append(a.shards, sh)
	}
	return a, nil
}

// SetTotalCapacity grows or shrinks the plane toward total processors, one
// processor at a time, so the observer hears one qos.KindResize per
// processor.  Growth always succeeds; a shrink never preempts a committed
// reservation, and stops at the first processor one still needs,
// returning the total reached alongside the shortfall.  A plane of more
// than one shard refuses.
func (a *Arbitrator) SetTotalCapacity(total int) (int, error) {
	if err := a.oneShard(); err != nil {
		return a.Procs(), err
	}
	if total < 1 {
		return a.Procs(), fmt.Errorf("fed: total capacity %d below one processor", total)
	}
	return a.shards[0].resizeToward(total)
}

// AttachBroker makes the plane's capacity follow a resource broker's pool
// (resbroker.Broker.Follow): every significant machine registration or
// deregistration resizes the plane to the broker's total through
// SetTotalCapacity, and a partial shrink leaves the next event to retry.
// The returned stop function detaches the follower.  A plane of more than
// one shard refuses.
func (a *Arbitrator) AttachBroker(b *resbroker.Broker, threshold int) (stop func(), err error) {
	if err := a.oneShard(); err != nil {
		return nil, err
	}
	return b.Follow(a.Procs(), threshold, func(procs int) { _, _ = a.SetTotalCapacity(procs) }), nil
}

// oneShard refuses a capacity change on a plane of more than one shard.
func (a *Arbitrator) oneShard() error {
	if len(a.shards) > 1 {
		return fmt.Errorf("fed: %d shards: capacity changes need a one-shard plane", len(a.shards))
	}
	return nil
}

// Procs returns the total machine size across all shards.
func (a *Arbitrator) Procs() int {
	total := 0
	for _, sh := range a.shards {
		total += sh.Procs()
	}
	return total
}

// candidates returns the indices of the k least-loaded shards, by the
// cached lock-free load signal, ties broken by shard id (deterministic: a
// strict-less insertion over ascending ids keeps the lower id first).
// One O(shards * k) selection scan, no sort, no closure allocations — this
// runs on every negotiation.
func (a *Arbitrator) candidates() []int {
	k := a.probeK
	cands := make([]int, 0, k)
	loads := make([]float64, 0, k)
	for i, sh := range a.shards {
		l := sh.load()
		pos := len(cands)
		for pos > 0 && l < loads[pos-1] {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(cands) < k {
			cands = append(cands, 0)
			loads = append(loads, 0)
		}
		copy(cands[pos+1:], cands[pos:])
		copy(loads[pos+1:], loads[pos:])
		cands[pos], loads[pos] = i, l
	}
	return cands
}

// probeResult is one successful planning probe.
type probeResult struct {
	shard *shard
	pl    *core.Placement
	key   planKey
	ver   uint64
}

// Negotiate runs federated admission control: probe the k least-loaded
// shards with a real plan, commit to the best probe under the paper's
// tie-break, and fall back down the probe order if a commit races with a
// concurrent mutation and the re-admission is rejected.  Returns the grant
// or qos.ErrRejected.
func (a *Arbitrator) Negotiate(job core.Job) (*qos.Grant, error) {
	return a.NegotiateTimed(job, nil)
}

// NegotiateTimed is Negotiate with latency-phase attribution (rec may be
// nil) — the record is the only instrument the admission path is handed;
// whoever owns the request reads its latency and its spans off it.
// Candidate selection is route, planning probes are probe, and the winning
// commit is reserve.  A commit attempt that loses its version race is
// attributed to probe — the capacity the probe saw was stale, so race
// retries surface as probe-phase inflation, which is exactly the contention
// signal the regression sentinel watches for.  A one-shard plane — the
// paper's single system-wide arbitrator — has nothing to choose between: no
// candidate scan, no probe list, no version race and no probe phase; its
// only shard plans and commits in one critical section (Shard.admit), as
// qos.Arbitrator does, marking route, plan, reserve.
func (a *Arbitrator) NegotiateTimed(job core.Job, rec *phase.Rec) (*qos.Grant, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("fed: negotiate: %w", err)
	}
	if len(a.shards) == 1 {
		g, err := a.shards[0].admit(job, rec)
		if err != nil {
			return nil, finishReject(rec, err)
		}
		finishAdmit(rec, g.Shard)
		return g, nil
	}
	cands := a.candidates()
	rec.Mark(phase.Route)
	probes := make([]probeResult, 0, len(cands))
	for _, ci := range cands {
		sh := a.shards[ci]
		if pl, key, ver, ok := sh.probe(job, len(cands) > 1); ok {
			probes = append(probes, probeResult{shard: sh, pl: pl, key: key, ver: ver})
		}
	}
	rec.Mark(phase.Probe)
	if len(probes) == 0 {
		// No shard can schedule any chain.  Mirror a single scheduler's
		// rejection bookkeeping on the least-loaded candidate (each
		// probed shard already counted its own planning work).
		a.shards[cands[0]].noteRejected(job)
		return nil, finishReject(rec, nil)
	}
	// Order probes best-first: stable insertion on strict betterKey, so
	// the incumbent wins ties and the load-order position breaks full
	// ties toward the less-loaded shard.  k is tiny; no sort machinery.
	for i := 1; i < len(probes); i++ {
		for j := i; j > 0 && betterKey(probes[j].key, probes[j-1].key); j-- {
			probes[j], probes[j-1] = probes[j-1], probes[j]
		}
	}
	var lastErr error
	for _, pr := range probes {
		g, err := pr.shard.commitPlanned(job, pr.pl, pr.ver)
		if err != nil {
			// The capacity the probe saw is gone; the raced re-admission
			// already recorded the rejection on that shard.  Try the next
			// best probe.  The wasted attempt is probe time: stale probes
			// are the cause, and the sentinel should see races inflate the
			// probe phase, not the reserve phase.
			rec.Mark(phase.Probe)
			lastErr = err
			continue
		}
		finishAdmit(rec, g.Shard)
		return g, nil
	}
	return nil, finishReject(rec, lastErr)
}

// NegotiateDAG runs DAG admission control, trying candidates in load
// order until one admits the job.  A DAG job carries no tenant identity
// yet: its grant reaches the observer under a job that holds only its ID
// (so accounting keeps it on the unattributed stream), and, like the
// reference, a DAG rejection is no decision.
func (a *Arbitrator) NegotiateDAG(job core.DAGJob) (*qos.Grant, error) {
	var lastErr error
	for _, ci := range a.candidates() {
		g, err := a.shards[ci].admitDAG(job)
		if err == nil {
			return g, nil
		}
		lastErr = err
	}
	if lastErr != nil && !errors.Is(lastErr, core.ErrRejected) {
		return nil, lastErr
	}
	return nil, qos.ErrRejected
}

// finishAdmit does the router-level bookkeeping of an admission the
// deciding shard has already committed and announced.
func finishAdmit(rec *phase.Rec, shard int) {
	rec.Mark(phase.Reserve)
	rec.SetShard(shard)
}

// finishReject does the router-level bookkeeping of a rejection (the
// deciding shard has already counted and announced it) and returns the
// error the caller reports: qos.ErrRejected, unless the last commit
// attempt failed for a reason other than admission control.  Rejection
// bookkeeping is reserve time at every shard count.
func finishReject(rec *phase.Rec, lastErr error) error {
	rec.Mark(phase.Reserve)
	if lastErr != nil && !errors.Is(lastErr, core.ErrRejected) {
		return lastErr
	}
	return qos.ErrRejected
}

// WhatIf replays the job under a counterfactual delta against every
// shard's forked schedule (lock held only for the fork), returning the
// first admissible placement in shard order.  It mutates nothing and emits
// no diagnoses; a 1-shard plane answers exactly what the reference
// qos.Arbitrator.WhatIf answers.
func (a *Arbitrator) WhatIf(job core.Job, d core.WhatIfDelta) (*core.Placement, bool) {
	for _, sh := range a.shards {
		if pl, ok := sh.whatIf(job, d); ok {
			return pl, true
		}
	}
	return nil, false
}

// Observe advances the plane's clock, folding elapsed history on every
// shard.
func (a *Arbitrator) Observe(now float64) {
	for {
		cur := floatFromBits(a.nowBits.Load())
		if now <= cur {
			return
		}
		if a.nowBits.CompareAndSwap(floatBits(cur), floatBits(now)) {
			break
		}
	}
	for _, sh := range a.shards {
		sh.observe(now)
	}
}

// now returns the last observed time.
func (a *Arbitrator) now() float64 { return floatFromBits(a.nowBits.Load()) }

// Utilization returns reserved capacity as a fraction of the whole plane
// over [origin, horizon]: total reserved processor-time up to horizon over
// total processors times the window.  With one shard this is exactly the
// reference arbitrator's utilization.
func (a *Arbitrator) Utilization(origin, horizon float64) float64 {
	if horizon <= origin {
		return 0
	}
	var busy float64
	procs := 0
	for _, sh := range a.shards {
		busy += sh.busyUpTo(horizon)
		procs += sh.Procs()
	}
	return busy / (float64(procs) * (horizon - origin))
}

// Stats returns the plane-wide scheduler counters: the additive merge of
// every shard's core.Stats.
func (a *Arbitrator) Stats() core.Stats {
	var out core.Stats
	for _, sh := range a.shards {
		s := sh.Stats()
		out.Admitted += s.Admitted
		out.Rejected += s.Rejected
		out.ReservedArea += s.ReservedArea
		out.QualitySum += s.QualitySum
		out.ChainsTried += s.ChainsTried
		out.HolesProbed += s.HolesProbed
		out.PlanFailures += s.PlanFailures
		for ci, n := range s.TunableChosen {
			for len(out.TunableChosen) <= ci {
				out.TunableChosen = append(out.TunableChosen, 0)
			}
			out.TunableChosen[ci] += n
		}
	}
	return out
}

// IndexStats returns the additive merge of every shard's profile-index
// work counters.
func (a *Arbitrator) IndexStats() core.IndexStats {
	var out core.IndexStats
	for _, sh := range a.shards {
		s := sh.IndexStats()
		out.Enabled = out.Enabled || s.Enabled
		out.Rebuilds += s.Rebuilds
		out.Descents += s.Descents
		out.DescentSteps += s.DescentSteps
	}
	return out
}

// CheckInvariants validates every shard's profile invariants.
func (a *Arbitrator) CheckInvariants() error {
	for _, sh := range a.shards {
		if err := sh.checkInvariants(); err != nil {
			return fmt.Errorf("fed: shard %d: %w", sh.ID(), err)
		}
	}
	return nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
