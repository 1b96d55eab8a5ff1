package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrRejected is returned by Admit when no chain of the job can be scheduled
// to meet its deadlines; the job fails admission control.
var ErrRejected = errors.New("core: job rejected by admission control")

// Stats accumulates scheduler-level counters over a run.
type Stats struct {
	Admitted      int
	Rejected      int
	TunableChosen []int // per-chain-index selection counts for tunable jobs
	ReservedArea  float64
	// QualitySum is the total output quality of the chosen chains; divided
	// by Admitted it is the mean achieved job quality.
	QualitySum float64
	// ChainsTried counts execution-path feasibility checks across all
	// planning calls (every chain evaluated by Plan or AdmitDAG).
	ChainsTried int
	// HolesProbed counts placement probes: each query of the
	// processor-time plane for a task slot (one Profile.EarliestFit).
	HolesProbed int
	// PlanFailures counts planning calls in which no execution path was
	// schedulable.
	PlanFailures int
}

// Scheduler implements the QoS arbitrator's scheduling decisions: online
// admission control and reservation of processor-time for jobs arriving over
// time (Section 5.2's greedy heuristic).
//
// A Scheduler is not safe for concurrent use; the arbitrator serializes
// admissions (negotiations are independent requests ordered by arrival).
type Scheduler struct {
	prof *Profile
	opts Options
	stat Stats

	// scratch is the planning loop's two task buffers: the chain being
	// placed and the best one so far, swapped when a candidate wins.  plan
	// borrows them for the length of one call and nothing it returns
	// points into them; Fork builds a scheduler with its own.
	scratch [2][]TaskPlacement
}

// NewScheduler returns a scheduler managing `procs` homogeneous processors
// from time origin, using the zero Options (the paper's configuration) if
// opts is nil.
func NewScheduler(procs int, origin float64, opts *Options) *Scheduler {
	var o Options
	if opts != nil {
		o = *opts
	}
	prof := NewProfile(procs, origin)
	if o.ProfileIndex != ProfileIndexOff {
		prof.EnableIndex()
	}
	return &Scheduler{prof: prof, opts: o}
}

// Procs returns the machine size.
func (s *Scheduler) Procs() int { return s.prof.capacity }

// Profile exposes the underlying capacity profile (read-mostly; callers must
// not reserve through it directly).
func (s *Scheduler) Profile() *Profile { return s.prof }

// Stats returns a copy of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	st := s.stat
	st.TunableChosen = append([]int(nil), s.stat.TunableChosen...)
	return st
}

// IndexStats returns the capacity profile's segment-tree work counters
// (zero value when Options.ProfileIndex is off).
func (s *Scheduler) IndexStats() IndexStats { return s.prof.IndexStats() }

// Observe informs the scheduler that simulated time has advanced to now,
// letting it fold fully elapsed reservations into its utilization
// accounting.  Admission decisions are unaffected.
func (s *Scheduler) Observe(now float64) { s.prof.TrimBefore(now) }

// BusyUpTo returns total reserved processor-time from the origin up to t.
func (s *Scheduler) BusyUpTo(t float64) float64 { return s.prof.BusyUpTo(t) }

// Utilization returns the fraction of machine capacity reserved between the
// origin and horizon.
func (s *Scheduler) Utilization(origin, horizon float64) float64 {
	if !timeLess(origin, horizon) {
		return 0
	}
	return s.prof.BusyUpTo(horizon) / (float64(s.prof.capacity) * (horizon - origin))
}

// Admit runs admission control for a job arriving at job.Release.  If some
// chain of the job can be placed so every task meets its deadline, Admit
// commits the reservation and returns the placement; otherwise it returns
// ErrRejected and the schedule is unchanged.
func (s *Scheduler) Admit(job Job) (*Placement, error) {
	return s.admit(job, nil, nil)
}

// AdmitInto is Admit with the placement written where the caller keeps it:
// *pl, its tasks appended to tasks[:0] (see PlanInto).  A rejected job
// leaves both untouched and allocates nothing.
func (s *Scheduler) AdmitInto(job Job, pl *Placement, tasks []TaskPlacement) error {
	_, err := s.admit(job, pl, tasks)
	return err
}

// admit is Admit and AdmitInto: a nil pl asks for a placement of the
// caller's own, which is allocated once the job is known to be schedulable.
func (s *Scheduler) admit(job Job, pl *Placement, tasks []TaskPlacement) (*Placement, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("core: admit: %w", err)
	}
	var planned Placement
	if _, ok := s.plan(job, &planned, tasks); !ok {
		s.NoteRejected()
		return nil, ErrRejected
	}
	if pl == nil {
		pl = new(Placement)
	}
	*pl = planned
	if err := s.Commit(job, pl); err != nil {
		return nil, err // internal inconsistency: plan no longer fits
	}
	return pl, nil
}

// SetCapacity resizes the scheduler's machine to procs processors.  Growth
// always succeeds; shrinking fails unless the new size still covers every
// committed reservation (reservations are never preempted — only
// uncommitted headroom may be given away).  The federated admission plane
// uses this to migrate whole processors between shards.
func (s *Scheduler) SetCapacity(procs int) error { return s.prof.SetCapacity(procs) }

// NoteRejected counts an admission rejection decided outside Admit — by a
// federated router whose planning probes all failed, or by durable-log
// replay — exactly as Admit's own rejection path does.  (Plan itself already
// counted the per-chain work and the plan failure.)
func (s *Scheduler) NoteRejected() { s.stat.Rejected++ }

// PlanKey carries the tie-break key of a planned placement in a form a
// federated router can compare across schedulers: finish time,
// utilization of the planning machine over [release, finish] including
// the plan's own area, and the cumulative resource prefix.  (Quality and
// area only order chains within one job and are already folded into the
// per-machine choice.)
type PlanKey struct {
	Finish float64
	Util   float64
	Prefix []float64
}

// Plan evaluates the job without committing anything, returning the chosen
// placement and whether the job is schedulable.  Plan+Commit allows the
// arbitrator to interpose policy (e.g. quality maximization across jobs)
// between feasibility analysis and reservation.  The placement and its tasks
// are the caller's own: Plan is PlanInto handed nothing to fill.
func (s *Scheduler) Plan(job Job) (*Placement, bool) {
	var planned Placement
	if !s.PlanInto(job, &planned, nil) {
		return nil, false
	}
	pl := planned
	return &pl, true
}

// PlanInto is the planner: it evaluates the job without committing anything
// and, if some chain is schedulable, writes the chosen placement to *pl with
// its tasks appended to tasks[:0] — in the caller's array when that has the
// room, so a caller that keeps a placement somewhere (a grant, a record) has
// it built there and nowhere else.  A job that is not schedulable leaves *pl
// and tasks untouched and allocates nothing.
func (s *Scheduler) PlanInto(job Job, pl *Placement, tasks []TaskPlacement) bool {
	_, ok := s.plan(job, pl, tasks)
	return ok
}

// PlanKeyed is Plan, additionally exposing the winning chain's tie-break
// key for a caller that compares plans across schedulers (the federated
// router's cross-shard comparison).  The key's utilization is an O(window)
// integration that planning itself often never needs, and its prefix a
// slice only a caller that keeps keys across plans needs built, so callers
// that do not compare keys should call Plan.
func (s *Scheduler) PlanKeyed(job Job) (*Placement, PlanKey, bool) {
	var planned Placement
	key, ok := s.plan(job, &planned, nil)
	if !ok {
		return nil, PlanKey{}, false
	}
	pl := planned
	prefix := make([]float64, len(pl.Tasks))
	var cum float64
	for i, tp := range pl.Tasks {
		cum += float64(tp.Procs) * tp.duration()
		prefix[i] = cum
	}
	return &pl, PlanKey{Finish: key.finish, Util: s.keyUtil(&key), Prefix: prefix}, true
}

// plan is the planning loop behind PlanInto and PlanKeyed: it fills *pl (see
// PlanInto) and returns the winner's tie-break key, whose utilization is
// filled in only if some comparison needed it.
//
// Every chain is placed into the scheduler's scratch and only the winner is
// copied out, once, after the loop: a chain that loses and a job that is
// rejected allocate nothing, and a winner that fits the array it is handed
// allocates nothing either.  The returned key's tasks are scratch, good
// until the next plan.
func (s *Scheduler) plan(job Job, pl *Placement, tasks []TaskPlacement) (chainKey, bool) {
	cand, inc := s.scratch[0], s.scratch[1]
	var bestKey chainKey
	bestChain := -1
	for ci, chain := range job.Chains {
		s.stat.ChainsTried++
		var ok bool
		cand, ok = s.placeChain(cand, chain, job.Release)
		if !ok {
			continue
		}
		key := chainSortKey(cand, chain, job.Release)
		if bestChain < 0 || s.better(&key, &bestKey) {
			bestKey, bestChain = key, ci
			cand, inc = inc, cand
		}
		if s.opts.TieBreak == TieBreakFirstFit {
			break
		}
	}
	s.scratch = [2][]TaskPlacement{cand, inc}
	if bestChain < 0 {
		s.stat.PlanFailures++
		if s.opts.Diagnosis != nil {
			s.opts.Diagnosis(s.diagnose(job))
		}
		return chainKey{}, false
	}
	*pl = Placement{JobID: job.ID, Chain: bestChain, Tasks: append(tasks[:0], inc...)}
	return bestKey, true
}

// Commit reserves the processor-time described by a placement previously
// returned by Plan for this job.
func (s *Scheduler) Commit(job Job, pl *Placement) error {
	for i, tp := range pl.Tasks {
		if err := s.prof.Reserve(tp.Procs, tp.Start, tp.Finish); err != nil {
			// Roll back what was reserved so far by rebuilding is not
			// possible with the additive profile; callers must only commit
			// placements planned against the current schedule.  Surface the
			// inconsistency loudly.
			return fmt.Errorf("core: commit task %d of job %d: %w", i, job.ID, err)
		}
	}
	s.stat.Admitted++
	s.stat.ReservedArea += pl.Area()
	s.stat.QualitySum += job.Chains[pl.Chain].Quality
	if job.Tunable() {
		for len(s.stat.TunableChosen) <= pl.Chain {
			s.stat.TunableChosen = append(s.stat.TunableChosen, 0)
		}
		s.stat.TunableChosen[pl.Chain]++
	}
	return nil
}

// PlaceChain places one chain's tasks with the first task released at
// `release`, without committing anything.  It is the building block the
// arbitrator uses to re-plan the remaining suffix of an in-flight job
// during renegotiation.  The result is the caller's to keep.
func (s *Scheduler) PlaceChain(chain Chain, release float64) ([]TaskPlacement, bool) {
	tasks, ok := s.placeChain(make([]TaskPlacement, 0, len(chain.Tasks)), chain, release)
	if !ok {
		return nil, false
	}
	return tasks, true
}

// ReserveSlot commits a raw processor-time rectangle (used when
// re-admitting the already-running task of a job after a capacity change:
// non-preemptive tasks keep their slot verbatim or die).
func (s *Scheduler) ReserveSlot(procs int, start, finish float64) error {
	return s.prof.Reserve(procs, start, finish)
}

// ReservePlacement commits every task of a placement without touching
// admission statistics (renegotiation bookkeeping).
func (s *Scheduler) ReservePlacement(pl *Placement) error {
	for i, tp := range pl.Tasks {
		if err := s.prof.Reserve(tp.Procs, tp.Start, tp.Finish); err != nil {
			return fmt.Errorf("core: reserve placement task %d: %w", i, err)
		}
	}
	return nil
}

// chainKey carries the paper's tie-breaking criteria for one schedulable
// chain: earliest finish, then utilization over [release, finish], then the
// cumulative resource prefix, then chain order (implicit in scan order).
//
// The utilization integrates the profile over the whole window — O(segments
// in the window), most of a deep profile — and most comparisons are settled
// by the finish time alone, so it is computed on demand: read it through
// keyUtil, never from the field.
type chainKey struct {
	release float64 // window start
	finish  float64 // window end
	area    float64 // total reserved area (for TieBreakMinArea)
	quality float64 // chain output quality (for TieBreakMaxQuality)
	// tasks is the placement in the order the prefix criterion reads it
	// (chain order; start order for a DAG).  The cumulative processor-time
	// after each task is summed from it when two keys tie on everything
	// before it, which is rare, instead of being built for every chain.
	tasks []TaskPlacement

	util     float64 // valid once utilDone
	utilDone bool
}

func chainSortKey(tasks []TaskPlacement, chain Chain, release float64) chainKey {
	pl := Placement{Tasks: tasks}
	return chainKey{release: release, finish: pl.Finish(), area: pl.Area(), quality: chain.Quality, tasks: tasks}
}

// keyUtil returns the key's utilization: the existing reservations in
// [release, finish) plus the chain's own area, over the machine's capacity
// on that window.  It is computed at most once per key.
func (s *Scheduler) keyUtil(k *chainKey) float64 {
	if k.utilDone {
		return k.util
	}
	k.utilDone = true
	if window := k.finish - k.release; window > Eps {
		busy := s.prof.BusyOn(maxTime(k.release, s.prof.Origin()), k.finish)
		k.util = (busy + k.area) / (float64(s.prof.capacity) * window)
	}
	return k.util
}

// compareUtil orders two keys by utilization: +1 if a's is higher by more
// than Eps, -1 if b's is, 0 if they tie.  Keys over the same window settle
// it from their areas (sameWindowUtil) and only fall back to integrating
// the profile inside the band where the areas cannot tell.
func (s *Scheduler) compareUtil(a, b *chainKey) int {
	if a.release == b.release && a.finish == b.finish {
		if c, ok := sameWindowUtil(s.prof.capacity, a.finish-a.release, a.area, b.area); ok {
			return c
		}
	}
	ua, ub := s.keyUtil(a), s.keyUtil(b)
	switch {
	case timeEq(ua, ub):
		return 0
	case ua > ub:
		return 1
	}
	return -1
}

// utilBand is how far from Eps the utilization difference of two keys over
// one window must be for their areas to settle the comparison: well above
// the few ulps by which the areas' difference and the utilizations'
// difference can disagree.
const utilBand = 1e-13

// sameWindowUtil is the utilization comparison of two keys over one window,
// decided without the profile.  Each key's utilization is (B + area) / (C ×
// window) with the same busy term B, and B and both areas lie in [0, C ×
// window], so the utilizations differ by |Δarea| / (C × window) to within
// a few ulps.  Outside utilBand of Eps that is the verdict keyUtil would
// give: a tie, or the larger area wins.  ok is false inside the band.
func sameWindowUtil(capacity int, window, areaA, areaB float64) (c int, ok bool) {
	if window <= Eps {
		return 0, true // keyUtil gives both keys 0
	}
	d := math.Abs(areaA-areaB) / (float64(capacity) * window)
	switch {
	case d < Eps-utilBand:
		return 0, true
	case d <= Eps+utilBand:
		return 0, false
	case areaA > areaB:
		return 1, true
	}
	return -1, true
}

// better reports whether candidate key a beats the incumbent key b under the
// configured tie-break policy.  Strict inequality is required everywhere so
// that, on full ties, the earlier-declared chain wins (deterministic).
func (s *Scheduler) better(a, b *chainKey) bool {
	switch s.opts.TieBreak {
	case TieBreakMinArea:
		if !timeEq(a.area, b.area) {
			return a.area < b.area
		}
		return timeLess(a.finish, b.finish)
	case TieBreakUtilFirst:
		if c := s.compareUtil(a, b); c != 0 {
			return c > 0
		}
		if c := comparePrefix(a.tasks, b.tasks); c != 0 {
			return c < 0
		}
		return timeLess(a.finish, b.finish)
	case TieBreakMaxQuality:
		if !timeEq(a.quality, b.quality) {
			return a.quality > b.quality
		}
	}
	// tieBreakPaper, and TieBreakMaxQuality among equal qualities
	// (TieBreakFirstFit never reaches here).
	if !timeEq(a.finish, b.finish) {
		return a.finish < b.finish
	}
	if c := s.compareUtil(a, b); c != 0 {
		return c > 0
	}
	return comparePrefix(a.tasks, b.tasks) < 0
}

// comparePrefix orders chains by "fewer total resources for some prefix of
// their tasks": cumulative processor-time is compared task by task and the
// chain that has consumed less at the first point of difference wins (it
// frees resources for near-term arrivals).  Returns -1, 0 or +1.  The two
// running sums are the ones a materialised prefix would hold, added in the
// same order, so the verdict is bit-for-bit the same.
func comparePrefix(a, b []TaskPlacement) int {
	n := min(len(a), len(b))
	var cumA, cumB float64
	for i := 0; i < n; i++ {
		cumA += float64(a[i].Procs) * a[i].duration()
		cumB += float64(b[i].Procs) * b[i].duration()
		if !timeEq(cumA, cumB) {
			if cumA < cumB {
				return -1
			}
			return 1
		}
	}
	return 0
}

// earliestFitOn is one placement probe of the processor-time plane, counted
// in Stats.HolesProbed, against an explicit profile (the scheduler's own, or
// a scratch copy for tentative DAG planning).
func (s *Scheduler) earliestFitOn(p *Profile, procs int, duration, est, deadline float64) (float64, bool) {
	s.stat.HolesProbed++
	return p.EarliestFit(procs, duration, est, deadline)
}

// placeChain attempts to place every task of the chain, with the first task
// released at `release`.  Within one chain, successive tasks occupy disjoint
// time intervals (task i+1 starts no earlier than task i finishes), so
// placements can be evaluated against the uncommitted profile.  The
// placements are appended to buf[:0], and the buffer comes back either way
// so a caller that reuses it keeps what it grew to.
func (s *Scheduler) placeChain(buf []TaskPlacement, chain Chain, release float64) ([]TaskPlacement, bool) {
	out := buf[:0]
	est := release
	for i, t := range chain.Tasks {
		tp, ok := s.placeTask(t, i, est)
		if !ok {
			return out, false
		}
		out = append(out, tp)
		est = tp.Finish
	}
	return out, true
}

// placeTask finds the earliest placement of a single task with earliest
// start est; for malleable tasks it also chooses the processor count.
func (s *Scheduler) placeTask(t Task, index int, est float64) (TaskPlacement, bool) {
	return s.placeTaskOn(s.prof, t, index, est)
}

// placeTaskOn is placeTask against an explicit profile.
func (s *Scheduler) placeTaskOn(p *Profile, t Task, index int, est float64) (TaskPlacement, bool) {
	if !t.Malleable {
		start, ok := s.earliestFitOn(p, t.Procs, t.Duration, est, t.Deadline)
		if !ok {
			return TaskPlacement{}, false
		}
		return TaskPlacement{Task: index, Start: start, Finish: start + t.Duration, Procs: t.Procs}, true
	}
	return s.placeMalleableOn(p, t, index, est)
}
