package core

import "fmt"

// Durable-state export and restore: the bit-exact, serializable view of a
// Profile and a Scheduler used by the durable admission plane
// (internal/durable) for snapshots and replay-on-open recovery.  Restore is
// required to reproduce the exported state exactly — the same float64 bits
// in every breakpoint and accumulator — so a recovered scheduler is
// indistinguishable from one that never crashed (the crashtest differential
// pins this).

// ProfileState is the complete observable state of a Profile: capacity, the
// piecewise-constant usage segments and the trimmed-busy accumulator.  The
// segment-tree index is deliberately absent — it is derived state, rebuilt
// lazily after restore.
type ProfileState struct {
	Capacity    int
	Times       []float64
	Used        []int
	TrimmedBusy float64
}

// stateInto exports the profile's state into dst, copying the segments
// into dst's own slices.
func (p *Profile) stateInto(dst *ProfileState) {
	dst.Capacity = p.capacity
	dst.Times = append(dst.Times[:0], p.times...)
	dst.Used = append(dst.Used[:0], p.used...)
	dst.TrimmedBusy = p.trimmedBusy
}

// profileFromState rebuilds a profile from an exported state, validating
// the structural invariants (a corrupt or hand-built state must fail here,
// never poison a scheduler).  The returned profile is unindexed; callers
// attach an index per their own policy.
func profileFromState(st ProfileState) (*Profile, error) {
	if st.Capacity < 1 {
		return nil, fmt.Errorf("core: profile state capacity %d (must be >= 1)", st.Capacity)
	}
	p := newProfile(st.Capacity, append([]float64(nil), st.Times...), append([]int(nil), st.Used...), st.TrimmedBusy)
	if err := p.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: profile state invalid: %w", err)
	}
	return p, nil
}

// SchedulerState is the complete committed state of a Scheduler: its
// capacity profile plus the admission counters.  Policy (Options) is not
// state — a restored scheduler keeps the options it was constructed with.
type SchedulerState struct {
	Profile ProfileState
	Stats   Stats
}

// ExportState exports the scheduler's committed state.  The returned slices
// are copies.
func (s *Scheduler) ExportState() (st SchedulerState) {
	s.ExportStateInto(&st)
	return st
}

// ExportStateInto is ExportState into dst, reusing dst's segment and
// tunable-chosen slices where they are long enough: an exporter that takes
// the same cut again and again (the durable plane's checkpoint) allocates
// only when the profile has grown past every earlier cut.
func (s *Scheduler) ExportStateInto(dst *SchedulerState) {
	s.prof.stateInto(&dst.Profile)
	chosen := dst.Stats.TunableChosen
	dst.Stats = s.stat
	dst.Stats.TunableChosen = append(chosen[:0], s.stat.TunableChosen...)
}

// RestoreState replaces the scheduler's profile and counters with an
// exported state, bit-exactly.  The scheduler keeps its configured options;
// the profile index follows the option policy, not the exporter's.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	p, err := profileFromState(st.Profile)
	if err != nil {
		return err
	}
	if s.opts.ProfileIndex != ProfileIndexOff {
		p.EnableIndex()
	}
	s.prof = p
	s.stat = st.Stats
	s.stat.TunableChosen = append([]int(nil), st.Stats.TunableChosen...)
	return nil
}

// ReplayCommit re-applies a committed placement during durable-log replay:
// the reservation plus the admission counters Commit would have recorded.
// It never re-plans — replay reproduces decisions, it does not make them.
func (s *Scheduler) ReplayCommit(pl *Placement, quality float64, tunable bool) error {
	for i, tp := range pl.Tasks {
		if err := s.prof.Reserve(tp.Procs, tp.Start, tp.Finish); err != nil {
			return fmt.Errorf("core: replay commit task %d of job %d: %w", i, pl.JobID, err)
		}
	}
	s.stat.Admitted++
	s.stat.ReservedArea += pl.Area()
	s.stat.QualitySum += quality
	if tunable {
		for len(s.stat.TunableChosen) <= pl.Chain {
			s.stat.TunableChosen = append(s.stat.TunableChosen, 0)
		}
		s.stat.TunableChosen[pl.Chain]++
	}
	return nil
}
