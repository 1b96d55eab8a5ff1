package fed

import (
	"fmt"

	"milan/internal/core"
)

// PlaneState is the federated plane's durable state: the observed clock
// plus every shard's committed scheduler state, in shard order.  The load
// signals are derived and rebuilt on restore; a restore is not a decision,
// and the observer hears nothing of it.
type PlaneState struct {
	Now    float64
	Shards []core.SchedulerState
}

// ExportState exports the plane's committed state, taking each shard's
// lock in turn.  The durable plane calls this under its own write lock,
// with no admissions in flight, so the export is a consistent cut.
func (a *Arbitrator) ExportState() PlaneState {
	st := PlaneState{Now: a.now(), Shards: make([]core.SchedulerState, len(a.shards))}
	for i, sh := range a.shards {
		sh.mu.Lock()
		st.Shards[i] = sh.sched.ExportState()
		sh.mu.Unlock()
	}
	return st
}

// RestoreState replaces every shard's scheduler state and the plane clock
// with an exported state, bit-exactly, and rebuilds the derived routing
// caches.  The shard count must match the plane's — durable recovery
// reconstructs the same partition before restoring.
func (a *Arbitrator) RestoreState(st PlaneState) error {
	if len(st.Shards) != len(a.shards) {
		return fmt.Errorf("fed: restore state has %d shards, plane has %d", len(st.Shards), len(a.shards))
	}
	for i, sh := range a.shards {
		sh.mu.Lock()
		if err := sh.sched.RestoreState(st.Shards[i]); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("fed: restore shard %d: %w", i, err)
		}
		sh.now = st.Now
		sh.version++
		sh.refreshLoadLocked()
		sh.mu.Unlock()
	}
	a.nowBits.Store(floatBits(st.Now))
	return nil
}
