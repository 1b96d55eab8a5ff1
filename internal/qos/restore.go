package qos

import "milan/internal/core"

// ArbitratorState is the monolithic arbitrator's committed state: the
// observed clock plus the scheduler's state.  Decision history and
// observers are not state.  It is what the differential oracles compare a
// one-shard admission plane against.
type ArbitratorState struct {
	Now   float64
	Sched core.SchedulerState
}

// ExportState exports the arbitrator's committed state under its lock.
func (a *Arbitrator) ExportState() ArbitratorState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArbitratorState{Now: a.now, Sched: a.sched.ExportState()}
}
