package durable

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"milan/internal/core"
)

// DiffStates compares two plane states over the durable contract and
// returns a description of the first divergence, or nil.  Durable state
// is: the clock, the scheduler's capacity profile (bitwise — raw float64
// bits, not tolerance), the replay-reconstructed admission counters
// (Admitted, Rejected, ReservedArea, QualitySum, TunableChosen), and the
// live grant set.  The planner's work counters (ChainsTried, HolesProbed,
// PlanFailures) are snapshot-carried diagnostics and are deliberately not
// compared.
func DiffStates(got, want *State) error {
	if fb(got.Now) != fb(want.Now) {
		return fmt.Errorf("now: got %v want %v", got.Now, want.Now)
	}
	if err := diffProfile(got.Sched.Profile, want.Sched.Profile); err != nil {
		return err
	}
	gs, ws := &got.Sched.Stats, &want.Sched.Stats
	if gs.Admitted != ws.Admitted {
		return fmt.Errorf("admitted: got %d want %d", gs.Admitted, ws.Admitted)
	}
	if gs.Rejected != ws.Rejected {
		return fmt.Errorf("rejected: got %d want %d", gs.Rejected, ws.Rejected)
	}
	if fb(gs.ReservedArea) != fb(ws.ReservedArea) {
		return fmt.Errorf("reserved area: got %v want %v", gs.ReservedArea, ws.ReservedArea)
	}
	if fb(gs.QualitySum) != fb(ws.QualitySum) {
		return fmt.Errorf("quality sum: got %v want %v", gs.QualitySum, ws.QualitySum)
	}
	if err := diffTunable(gs.TunableChosen, ws.TunableChosen); err != nil {
		return err
	}
	return diffGrants(got.Grants, want.Grants)
}

// Lost is the acked ⇒ durable oracle: given the grants acknowledged to
// callers (job ID → the reserved finish each caller was told), it returns in
// ascending order those whose reservation runs past s.Now and that s.Grants
// does not hold.  A grant that finished by s.Now is owed nothing more.
func (s *State) Lost(acked map[int]float64) []int {
	var lost []int
	for id, finish := range acked {
		if finish <= s.Now {
			continue
		}
		if _, live := slices.BinarySearchFunc(s.Grants, id, func(g GrantRecord, id int) int {
			return cmp.Compare(g.JobID, id)
		}); !live {
			lost = append(lost, id)
		}
	}
	slices.Sort(lost)
	return lost
}

func fb(f float64) uint64 { return math.Float64bits(f) }

func diffProfile(got, want core.ProfileState) error {
	if got.Capacity != want.Capacity {
		return fmt.Errorf("capacity: got %d want %d", got.Capacity, want.Capacity)
	}
	if fb(got.TrimmedBusy) != fb(want.TrimmedBusy) {
		return fmt.Errorf("trimmed busy: got %v want %v", got.TrimmedBusy, want.TrimmedBusy)
	}
	if len(got.Times) != len(want.Times) {
		return fmt.Errorf("segment count: got %d want %d", len(got.Times), len(want.Times))
	}
	for i := range got.Times {
		if fb(got.Times[i]) != fb(want.Times[i]) {
			return fmt.Errorf("segment %d time: got %v want %v", i, got.Times[i], want.Times[i])
		}
		if got.Used[i] != want.Used[i] {
			return fmt.Errorf("segment %d used: got %d want %d", i, got.Used[i], want.Used[i])
		}
	}
	return nil
}

func diffTunable(got, want []int) error {
	n := len(got)
	if len(want) > n {
		n = len(want)
	}
	at := func(s []int, i int) int {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if at(got, i) != at(want, i) {
			return fmt.Errorf("tunable chosen chain %d: got %d want %d", i, at(got, i), at(want, i))
		}
	}
	return nil
}

func diffGrants(got, want []GrantRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("grant count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.JobID != w.JobID || g.Chain != w.Chain {
			return fmt.Errorf("grant %d: got job=%d chain=%d want job=%d chain=%d",
				i, g.JobID, g.Chain, w.JobID, w.Chain)
		}
		if fb(g.Quality) != fb(w.Quality) {
			return fmt.Errorf("grant job %d quality: got %v want %v", g.JobID, g.Quality, w.Quality)
		}
		if len(g.Tasks) != len(w.Tasks) {
			return fmt.Errorf("grant job %d task count: got %d want %d", g.JobID, len(g.Tasks), len(w.Tasks))
		}
		for t := range g.Tasks {
			gt, wt := g.Tasks[t], w.Tasks[t]
			if gt.Task != wt.Task || gt.Procs != wt.Procs || fb(gt.Start) != fb(wt.Start) || fb(gt.Finish) != fb(wt.Finish) {
				return fmt.Errorf("grant job %d task %d: got %+v want %+v", g.JobID, t, gt, wt)
			}
		}
	}
	return nil
}
