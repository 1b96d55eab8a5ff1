// Package ledger is the utilization ledger: exact capacity accounting per
// tenant and priority class.  It keeps one book — per-key running totals
// of committed reservation area, realized execution area (from completion
// events), commits, completions and rejections — next to the current pool
// capacity, and derives the figures operators bill and steer by: waste
// (reserved-but-unrealized area) and per-tenant fair-share ratios.
//
// Every commit adds the placement's exact area to a global running total
// and to its (tenant, class) total, in commit order under one lock — the
// same float additions, in the same order, as core.Scheduler's
// ReservedArea counter, so the ledger's reserved area is bit-identical to
// profile accounting at every committed mutation (the differential tests
// pin this).
//
// Mutations take the ledger mutex and bump a version; Snapshot returns a
// cached immutable snapshot via an atomic pointer while the version is
// unchanged, so steady-state readers — including the cluster view's merging —
// are lock-free.  All methods are nil-safe: a nil *Ledger records
// nothing, so callers hook the ledger behind one pointer comparison (the
// observability layer's zero-cost contract).
package ledger

import (
	"sort"
	"sync"
	"sync/atomic"

	"milan/internal/core"
)

// Key identifies one accounting stream: the billing principal and its
// priority class.  The zero Key ("", 0) is the unattributed stream —
// jobs that carry no tenant still account there, so areas always sum
// to the whole pool's activity.
type Key struct {
	Tenant string
	Class  int
}

// KeyOf extracts the accounting key of a job.
func KeyOf(job *core.Job) Key { return Key{Tenant: job.Tenant, Class: job.Class} }

// Config configures a ledger.
type Config struct {
	// Capacity is the initial pool capacity in processors; SetCapacity
	// restates it (the plane's resize decisions, broker offers).
	Capacity int
}

// totals is the exact per-key accumulator.
type totals struct {
	reserved    float64
	realized    float64
	commits     int64
	completions int64
	rejections  int64
}

// Ledger is one admission plane's accounting stream.  The zero value is
// not usable; construct with New.
type Ledger struct {
	mu       sync.Mutex
	now      float64
	capacity int
	perKey   map[Key]*totals

	// Exact commit-ordered accumulators (see package comment).
	totalReserved float64
	totalRealized float64

	commits     int64
	completions int64
	rejections  int64

	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]
}

// New returns a ledger with the given configuration.
func New(cfg Config) *Ledger {
	return &Ledger{capacity: cfg.Capacity, perKey: make(map[Key]*totals)}
}

// recordCommit records a committed reservation: the placement's exact
// area is added to the global and per-key running totals, in call order —
// callers invoke this under the same lock, in the same order, as the
// scheduler commit it mirrors.
func (l *Ledger) recordCommit(job *core.Job, pl *core.Placement) {
	if l == nil {
		return
	}
	l.RecordCommitKeyed(KeyOf(job), pl)
}

// RecordCommitKeyed is recordCommit for callers that carry the
// accounting key directly (DAG admissions, replayed decisions).
func (l *Ledger) RecordCommitKeyed(k Key, pl *core.Placement) {
	if l == nil {
		return
	}
	area := pl.Area()
	l.mu.Lock()
	l.totalReserved += area
	tt := l.totalsFor(k)
	tt.reserved += area
	tt.commits++
	l.commits++
	l.bumpLocked()
	l.mu.Unlock()
}

// RecordCompletion records that an admitted job's reservation actually
// executed: the placement's exact area is added to the realized totals.
// Call it from the completion event (sim or runtime).
func (l *Ledger) RecordCompletion(k Key, pl *core.Placement) {
	if l == nil {
		return
	}
	area := pl.Area()
	l.mu.Lock()
	l.totalRealized += area
	tt := l.totalsFor(k)
	tt.realized += area
	tt.completions++
	l.completions++
	l.bumpLocked()
	l.mu.Unlock()
}

// recordRejection counts a rejected negotiation against the key — no
// area moves, but rejection pressure per tenant is a fairness signal.
func (l *Ledger) recordRejection(job *core.Job) {
	if l == nil {
		return
	}
	k := KeyOf(job)
	l.mu.Lock()
	l.totalsFor(k).rejections++
	l.rejections++
	l.bumpLocked()
	l.mu.Unlock()
}

// Advance moves the ledger clock forward.  Earlier times are no-ops (the
// plane's clock decisions and the harness may both advance).
func (l *Ledger) Advance(now float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if now > l.now {
		l.now = now
		l.bumpLocked()
	}
	l.mu.Unlock()
}

// SetCapacity restates the pool capacity.
func (l *Ledger) SetCapacity(procs int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.capacity = procs
	l.bumpLocked()
	l.mu.Unlock()
}

// totalsFor returns the per-key accumulator, creating it on first use.
// Callers hold l.mu.
func (l *Ledger) totalsFor(k Key) *totals {
	t, ok := l.perKey[k]
	if !ok {
		t = &totals{}
		l.perKey[k] = t
	}
	return t
}

// bumpLocked publishes a mutation: the version tick that retires the
// cached snapshot.  Callers hold l.mu.
func (l *Ledger) bumpLocked() { l.version.Add(1) }

// Snapshot returns an immutable snapshot of the ledger.  The cached
// snapshot is returned lock-free while no mutation has intervened;
// otherwise it is rebuilt under the lock and republished.
func (l *Ledger) Snapshot() *Snapshot {
	if l == nil {
		return nil
	}
	v := l.version.Load()
	if s := l.snap.Load(); s != nil && s.Version == v {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Snapshot{
		Version:  l.version.Load(),
		Now:      l.now,
		Capacity: l.capacity,

		TotalReservedArea: l.totalReserved,
		TotalRealizedArea: l.totalRealized,
		Commits:           l.commits,
		Completions:       l.completions,
		Rejections:        l.rejections,
	}
	for k, t := range l.perKey {
		s.Totals = append(s.Totals, Totals{
			Tenant: k.Tenant, Class: k.Class,
			ReservedArea: t.reserved, RealizedArea: t.realized,
			Commits: t.commits, Completions: t.completions, Rejections: t.rejections,
		})
	}
	sortTotals(s.Totals)
	l.snap.Store(s)
	return s
}

func sortTotals(ts []Totals) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Tenant != ts[j].Tenant {
			return ts[i].Tenant < ts[j].Tenant
		}
		return ts[i].Class < ts[j].Class
	})
}
