package durable

import (
	"cmp"
	"fmt"
	"slices"

	"milan/internal/core"
	"milan/internal/frame"
)

// GrantRecord is one live committed grant in the durable state: everything
// needed to account for the grant after recovery (and to prove none was
// lost).  The reservation itself lives in the scheduler's profile; the
// grant set is bookkeeping over it.
type GrantRecord struct {
	JobID   int
	Chain   int
	Quality float64
	Tunable bool
	Tenant  string
	Class   int
	Tasks   []core.TaskPlacement
}

// finish returns the grant's reservation finish time (the latest task
// finish).
func (g *GrantRecord) finish() float64 {
	var f float64
	for i, tp := range g.Tasks {
		if i == 0 || tp.Finish > f {
			f = tp.Finish
		}
	}
	return f
}

// State is the complete durable state of an admission plane at one log
// position: the clock, the scheduler's state and the set of live grants
// (committed reservations that have not completed).
type State struct {
	// LSN is the last log record reflected in this state (0 = genesis).
	LSN uint64
	// Now is the plane's observed clock.
	Now float64
	// Sched is the plane's scheduler state: its capacity profile and
	// counters.
	Sched core.SchedulerState
	// Grants is the live grant set, sorted by job ID.
	Grants []GrantRecord
}

// genesis returns the empty state of a plane with procs processors from
// time origin.
func genesis(procs int, origin float64) (State, error) {
	if procs < 1 {
		return State{}, fmt.Errorf("durable: genesis needs at least 1 processor, got %d", procs)
	}
	return State{Now: origin, Sched: core.SchedulerState{Profile: core.ProfileState{
		Capacity: procs,
		Times:    []float64{origin},
		Used:     []int{0},
	}}}, nil
}

// prune drops grants whose reservations have fully elapsed (finish at or
// before Now) and sorts the survivors by job ID.  Recovery ends with it and
// a checkpoint's fold applies the same predicate, so the grant set a
// snapshot holds stays bounded by concurrency, not by history.
// A state that is already pruned and sorted — the plane's own export —
// costs one read-only pass.
func (s *State) prune() {
	clean := true
	for i := range s.Grants {
		if s.Grants[i].finish() <= s.Now || (i > 0 && s.Grants[i-1].JobID > s.Grants[i].JobID) {
			clean = false
			break
		}
	}
	if clean {
		return
	}
	live := s.Grants[:0]
	for _, g := range s.Grants {
		if g.finish() > s.Now {
			live = append(live, g)
		}
	}
	s.Grants = live
	slices.SortFunc(s.Grants, func(a, b GrantRecord) int { return cmp.Compare(a.JobID, b.JobID) })
}

const (
	maxSegments      = 1 << 22
	maxGrants        = 1 << 22
	maxTunableChosen = 1 << 12
)

// appendSnapshot appends st's snapshot payload to b (no framing, no file
// header — the store frames it), growing b at most once.
func appendSnapshot(b []byte, st *State) []byte {
	b = slices.Grow(b, snapshotSize(st))
	b = frame.AppendU64(b, st.LSN)
	b = frame.AppendF64(b, st.Now)
	sc := &st.Sched
	b = frame.AppendU32(b, uint32(sc.Profile.Capacity))
	b = frame.AppendF64(b, sc.Profile.TrimmedBusy)
	b = frame.AppendU32(b, uint32(len(sc.Profile.Times)))
	for _, t := range sc.Profile.Times {
		b = frame.AppendF64(b, t)
	}
	for _, u := range sc.Profile.Used {
		b = frame.AppendU32(b, uint32(u))
	}
	b = frame.AppendU64(b, uint64(int64(sc.Stats.Admitted)))
	b = frame.AppendU64(b, uint64(int64(sc.Stats.Rejected)))
	b = frame.AppendF64(b, sc.Stats.ReservedArea)
	b = frame.AppendF64(b, sc.Stats.QualitySum)
	b = frame.AppendU64(b, uint64(int64(sc.Stats.ChainsTried)))
	b = frame.AppendU64(b, uint64(int64(sc.Stats.HolesProbed)))
	b = frame.AppendU64(b, uint64(int64(sc.Stats.PlanFailures)))
	b = frame.AppendU32(b, uint32(len(sc.Stats.TunableChosen)))
	for _, n := range sc.Stats.TunableChosen {
		b = frame.AppendU64(b, uint64(int64(n)))
	}
	b = frame.AppendU32(b, uint32(len(st.Grants)))
	for i := range st.Grants {
		g := &st.Grants[i]
		b = frame.AppendU64(b, uint64(int64(g.JobID)))
		b = frame.AppendU32(b, uint32(g.Chain))
		b = frame.AppendF64(b, g.Quality)
		b = frame.AppendBool(b, g.Tunable)
		b = frame.AppendStr(b, g.Tenant)
		b = frame.AppendU32(b, uint32(int32(g.Class)))
		b = appendTasks(b, g.Tasks)
	}
	return b
}

// snapshotSize returns the length of st's snapshot payload exactly, so the
// encoder grows its buffer once (hundreds of KB on a deep backlog) instead
// of doubling up to it.
func snapshotSize(st *State) int {
	sc := &st.Sched
	n := 8 + 8 // LSN, Now
	n += 4 + 8 + 4 + 8*len(sc.Profile.Times) + 4*len(sc.Profile.Used)
	n += 7*8 + 4 + 8*len(sc.Stats.TunableChosen)
	n += 4 // grant count
	for i := range st.Grants {
		g := &st.Grants[i]
		n += 8 + 4 + 8 + 1 + 4 + min(len(g.Tenant), frame.MaxString) + 4 + 4 + 24*len(g.Tasks)
	}
	return n
}

// decodeSnapshot parses a snapshot payload.  Any corruption — truncation,
// insane counts, trailing bytes — returns an error; no input may panic
// (the fuzz target pins this).  Structural validity of the profile is
// checked later, by core's profileFromState, when the state is restored.
func decodeSnapshot(payload []byte) (State, error) {
	c := frame.NewCursor("durable", payload)
	var st State
	st.LSN = c.U64()
	st.Now = c.F64()
	sc := &st.Sched
	sc.Profile.Capacity = int(int32(c.U32()))
	sc.Profile.TrimmedBusy = c.F64()
	nseg := c.Count(maxSegments, 12, "snapshot segment")
	sc.Profile.Times = make([]float64, 0, nseg)
	for j := 0; j < nseg && c.Err() == nil; j++ {
		sc.Profile.Times = append(sc.Profile.Times, c.F64())
	}
	sc.Profile.Used = make([]int, 0, nseg)
	for j := 0; j < nseg && c.Err() == nil; j++ {
		sc.Profile.Used = append(sc.Profile.Used, int(int32(c.U32())))
	}
	sc.Stats.Admitted = int(c.I64())
	sc.Stats.Rejected = int(c.I64())
	sc.Stats.ReservedArea = c.F64()
	sc.Stats.QualitySum = c.F64()
	sc.Stats.ChainsTried = int(c.I64())
	sc.Stats.HolesProbed = int(c.I64())
	sc.Stats.PlanFailures = int(c.I64())
	ntc := c.Count(maxTunableChosen, 8, "snapshot tunable-chosen")
	for j := 0; j < ntc && c.Err() == nil; j++ {
		sc.Stats.TunableChosen = append(sc.Stats.TunableChosen, int(c.I64()))
	}
	ng := c.Count(maxGrants, 21, "snapshot grant")
	for i := 0; i < ng && c.Err() == nil; i++ {
		var g GrantRecord
		g.JobID = int(c.I64())
		g.Chain = int(int32(c.U32()))
		g.Quality = c.F64()
		g.Tunable = c.Bool()
		g.Tenant = c.Str()
		g.Class = int(int32(c.U32()))
		g.Tasks = decodeTasks(&c)
		st.Grants = append(st.Grants, g)
	}
	if err := c.Done(); err != nil {
		return State{}, err
	}
	return st, nil
}
