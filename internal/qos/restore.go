package qos

import "milan/internal/core"

// arbitratorState is the monolithic arbitrator's committed state: the
// observed clock plus the scheduler's state.  Decision history and
// observers are not state.  It is what the differential oracles compare a
// one-shard admission plane against.
type arbitratorState struct {
	Now   float64
	Sched core.SchedulerState
}

// ExportState exports the arbitrator's committed state under its lock.
func (a *Arbitrator) ExportState() arbitratorState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return arbitratorState{Now: a.now, Sched: a.sched.ExportState()}
}
