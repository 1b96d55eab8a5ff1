package core

// Rejection explainer.
//
// The arbitrator tries every candidate chain of a tunable job and silently
// discards the ones that do not fit (Section 5.2).  When a plan fails, the
// structures below explain the failure per candidate chain: which task
// could not be placed, which constraint bound it (machine width, intrinsic
// deadline, or competing reservations), the best near-miss hole the
// processor-time plane offered, and a minimal slack vector — extra
// processors, extra deadline, or reduced width — that would have made the
// chain schedulable.  Every slack value is verified by replaying the
// corresponding WhatIfDelta on a fork of the live schedule before it is
// reported, so a diagnosis's suggestion is admissible by construction
// (the closed-loop property the forensics tests pin).
//
// Diagnosis is strictly opt-in: Options.Diagnosis is nil by default and
// the planning hot path pays nothing — not even an allocation — until a
// plan actually fails with a diagnosis sink installed.

// Constraint names the binding constraint that stopped a task placement.
type Constraint string

const (
	// ConstraintWidth: the task demands more simultaneous processors than
	// the machine has; no schedule on this machine can place it.
	ConstraintWidth Constraint = "width"
	// ConstraintDeadline: the task's window is too short even on an idle
	// machine (its deadline binds intrinsically, independent of load).
	ConstraintDeadline Constraint = "deadline"
	// ConstraintCapacity: the task fits the machine and its window, but
	// competing reservations leave no hole wide enough in time.
	ConstraintCapacity Constraint = "capacity"
)

// SlackVector reports, per relaxation axis, the minimal relaxation that
// makes the chain schedulable on its own.  A zero value on an axis means
// that axis alone cannot admit the chain (e.g. no deadline extension
// helps a job wider than the machine).  Every non-zero value has been
// verified by replay on a fork of the live schedule.
type SlackVector struct {
	// ExtraProcs is the minimal machine growth (processors) that admits
	// the chain with deadlines unchanged.
	ExtraProcs int `json:"extra_procs,omitempty"`
	// ExtraDeadline is the minimal uniform deadline extension (applied to
	// every task of the chain) that admits it on the current machine.
	ExtraDeadline float64 `json:"extra_deadline,omitempty"`
	// ReducedWidth is the minimal width reduction of the chain's tasks
	// (via a constant-area width cap at FailedTask's Procs-ReducedWidth)
	// that admits the chain on the current machine.
	ReducedWidth int `json:"reduced_width,omitempty"`
}

// ChainDiagnosis explains why one candidate chain failed to place.
type ChainDiagnosis struct {
	Chain     int    `json:"chain"`
	ChainName string `json:"chain_name,omitempty"`
	// Schedulable is true when the greedy replay placed the chain after
	// all (possible when Diagnose is invoked on an admittable job).
	Schedulable bool `json:"schedulable,omitempty"`
	// FailedTask is the index of the first task the greedy replay could
	// not place (-1 when Schedulable).
	FailedTask int        `json:"failed_task"`
	TaskName   string     `json:"task_name,omitempty"`
	Constraint Constraint `json:"constraint,omitempty"`
	// WantProcs/WantDuration are the failed task's demand rectangle (for
	// malleable tasks: the narrowest duration at full concurrency).
	WantProcs    int     `json:"want_procs,omitempty"`
	WantDuration float64 `json:"want_duration,omitempty"`
	// EarliestStart is where the failed task's search began (its
	// predecessor's finish) and Deadline its absolute deadline.
	EarliestStart float64 `json:"earliest_start,omitempty"`
	Deadline      float64 `json:"deadline,omitempty"`
	// AvailProcs is the best achievable width over any window of
	// WantDuration within [EarliestStart, Deadline] — the near-miss: the
	// task needed WantProcs and the plane offered AvailProcs.
	AvailProcs int `json:"avail_procs"`
	// BestHole is the maximal hole realizing AvailProcs (clipped to the
	// task's window; zero when no hole intersects the window at all).
	BestHole Hole `json:"best_hole"`
	// Slack is the per-axis minimal relaxation admitting this chain.
	Slack SlackVector `json:"slack"`
}

// PlanDiagnosis explains one failed planning pass: every candidate chain's
// failure analysis plus one replay-verified suggestion that flips the job
// to admitted.
type PlanDiagnosis struct {
	JobID   int     `json:"job"`
	JobName string  `json:"job_name,omitempty"`
	Release float64 `json:"release"`
	// Shard is filled by the federated router (-1 for a monolith plane).
	Shard int `json:"shard,omitempty"`
	// Capacity and PeakUsed snapshot the machine at decision time.
	Capacity int              `json:"capacity"`
	PeakUsed int              `json:"peak_used"`
	Chains   []ChainDiagnosis `json:"chains"`
	// Suggestion is the cheapest verified WhatIfDelta that admits the job
	// (preferring deadline slack over width reduction over machine
	// growth).  It is nil only for jobs no finite relaxation can admit.
	Suggestion *WhatIfDelta `json:"suggestion,omitempty"`
}

// maxWidthScan bounds the linear width-cap search per chain.
const maxWidthScan = 64

// diagnose explains why the job is (or would be) rejected: a greedy
// failure analysis per candidate chain plus verified minimal slack.  It
// never mutates the scheduler — all replays run on forks of the profile —
// and it accumulates no statistics.  Plan calls it automatically on
// failure when Options.Diagnosis is installed; it is also safe to call
// directly (e.g. from an operator's /explain request).
func (s *Scheduler) diagnose(job Job) *PlanDiagnosis {
	d := &PlanDiagnosis{
		JobID:    job.ID,
		JobName:  job.Name,
		Release:  job.Release,
		Shard:    -1,
		Capacity: s.prof.capacity,
		PeakUsed: s.prof.peakUsed(),
	}
	d.Chains = make([]ChainDiagnosis, len(job.Chains))
	for ci := range job.Chains {
		d.Chains[ci] = s.diagnoseChain(job, ci)
	}
	d.Suggestion = s.suggest(job, d.Chains)
	return d
}

// minDuration is the task's shortest possible duration: its fixed
// duration when non-malleable, its duration at full concurrency when
// malleable (capped at the machine width only when cap > 0).
func minDuration(t Task, machine int) float64 {
	if !t.Malleable {
		return t.Duration
	}
	p := t.MaxProcs
	if machine > 0 && p > machine {
		p = machine
	}
	if p < 1 {
		p = 1
	}
	return t.Work / float64(p)
}

// taskWidth is the task's maximum simultaneous processor demand.
func taskWidth(t Task) int {
	if t.Malleable {
		return t.MaxProcs
	}
	return t.Procs
}

// diagnoseChain replays one chain greedily on a fork, identifies the
// first failing task and its binding constraint, probes the near-miss
// hole, and computes the verified per-axis slack.
func (s *Scheduler) diagnoseChain(job Job, ci int) ChainDiagnosis {
	chain := job.Chains[ci]
	cd := ChainDiagnosis{Chain: ci, ChainName: chain.Name, FailedTask: -1}
	f := s.Fork() // probing never touches the live profile or stats
	cap := f.prof.capacity

	est := job.Release
	idleFinish := job.Release // back-to-back finish on an idle machine
	var failed Task
	for i, t := range chain.Tasks {
		idleFinish += minDuration(t, cap)
		tp, ok := f.placeTask(t, i, est)
		if !ok {
			cd.FailedTask = i
			failed = t
			break
		}
		est = tp.Finish
	}
	if cd.FailedTask < 0 {
		cd.Schedulable = true
		return cd
	}

	cd.TaskName = failed.Name
	cd.WantProcs = taskWidth(failed)
	cd.WantDuration = minDuration(failed, cap)
	cd.EarliestStart = est
	cd.Deadline = failed.Deadline

	// Binding constraint: width beats deadline beats capacity.
	switch {
	case !failed.Malleable && failed.Procs > cap:
		cd.Constraint = ConstraintWidth
	case !timeLeq(idleFinish, failed.Deadline):
		// Even an idle machine, running every predecessor at its minimal
		// duration, blows the deadline: the window is intrinsically short.
		cd.Constraint = ConstraintDeadline
	default:
		cd.Constraint = ConstraintCapacity
	}

	cd.AvailProcs, cd.BestHole = nearMiss(f.prof, est, failed.Deadline, cd.WantDuration)
	cd.Slack = s.chainSlack(job, ci, failed)
	return cd
}

// nearMiss returns the best achievable width W over any window of the
// given duration within [est, deadline], and the maximal hole realizing
// it (clipped to the window so the record is JSON-finite).  By the
// maximal-rectangle extension argument, scanning MaximalHoles(est) is
// exact: any feasible (start, width) pair lies inside some maximal hole
// at least as wide.
func nearMiss(p *Profile, est, deadline, duration float64) (int, Hole) {
	holes := p.MaximalHoles(est)
	bestW := 0
	var best Hole
	var widest Hole // fallback: widest hole intersecting the window at all
	for _, h := range holes {
		s0 := maxTime(h.Start, est)
		e0 := minTime(h.End, deadline)
		if !timeLess(s0, e0) {
			continue
		}
		if h.Procs > widest.Procs {
			widest = Hole{Start: s0, End: e0, Procs: h.Procs}
		}
		if timeLeq(s0+duration, e0) && h.Procs > bestW {
			bestW = h.Procs
			best = Hole{Start: s0, End: e0, Procs: h.Procs}
		}
	}
	if bestW == 0 {
		// No hole long enough for the duration: report the widest
		// too-short hole as the near-miss.
		return 0, widest
	}
	return bestW, best
}

// verify replays the delta via the public WhatIf path and reports whether
// it admits the job.
func (s *Scheduler) verify(job Job, d WhatIfDelta) bool {
	_, ok := s.WhatIf(job, d)
	return ok
}

// chainSlack computes the verified minimal relaxation per axis for one
// chain.
func (s *Scheduler) chainSlack(job Job, ci int, failed Task) SlackVector {
	var sl SlackVector
	sl.ExtraDeadline = s.deadlineSlack(job, ci, 0)
	sl.ExtraProcs = s.procSlack(job, ci)
	sl.ReducedWidth = s.widthSlack(job, ci, failed)
	return sl
}

// deadlineSlack returns the minimal uniform deadline extension admitting
// chain ci on a machine grown by extraProcs (0 for the current machine),
// or 0 when no finite extension helps (the chain is wider than the
// machine).
//
// Exactness: greedy placement with deadlines is identical to unbounded
// greedy placement whenever no deadline binds — EarliestFit returns the
// same earliest start and the deadline only accepts or rejects it.  So
// the minimal uniform extension is D = max_i(F_i - deadline_i) over the
// unbounded replay finishes F_i, and replaying with +D reproduces the
// unbounded placements exactly.  The result is still replay-verified
// (guarding against floating-point edge cases), with a tolerance nudge
// before giving up.
func (s *Scheduler) deadlineSlack(job Job, ci int, extraProcs int) float64 {
	chain := job.Chains[ci]
	f := s.Fork()
	if extraProcs > 0 {
		if f.prof.SetCapacity(f.prof.capacity+extraProcs) != nil {
			return 0
		}
	}
	// Unbounded replay: lift every deadline to +inf.
	est := job.Release
	need := 0.0
	for i, t := range chain.Tasks {
		lt := t
		lt.Deadline = inf
		tp, ok := f.placeTask(lt, i, est)
		if !ok {
			return 0 // wider than the machine: no deadline extension helps
		}
		est = tp.Finish
		if over := tp.Finish - t.Deadline; over > need {
			need = over
		}
	}
	if need <= 0 {
		// The unbounded replay already meets every deadline, so the
		// failure was deadline-free — this axis is not the binding one.
		return 0
	}
	d := WhatIfDelta{OnlyChain: ci + 1, ExtraDeadline: need, ExtraProcs: extraProcs}
	for range [4]struct{}{} {
		if s.verify(job, d) {
			return d.ExtraDeadline
		}
		// Floating-point edge: nudge past the tolerance band and retry.
		d.ExtraDeadline += 10 * Eps * (1 + d.ExtraDeadline)
	}
	return 0
}

// procSlack returns the minimal machine growth admitting chain ci with
// deadlines unchanged, or 0 when no growth helps (the deadline binds
// intrinsically).
func (s *Scheduler) procSlack(job Job, ci int) int {
	chain := job.Chains[ci]
	// Intrinsic feasibility: on an unloaded machine of unlimited width,
	// tasks run back-to-back at minimal duration; if that already misses a
	// deadline, no amount of hardware admits the chain.
	finish := job.Release
	wmax := 0
	for _, t := range chain.Tasks {
		finish += minDuration(t, 0) // unlimited machine
		if !timeLeq(finish, t.Deadline) {
			return 0
		}
		if w := taskWidth(t); w > wmax {
			wmax = w
		}
	}
	cap := s.prof.capacity
	// Upper bound: enough growth to dwarf both the committed peak and the
	// chain's widest task, making the machine look idle to this chain.
	hi := s.prof.peakUsed()
	if wmax > cap {
		hi += wmax - cap
	}
	if hi < 1 {
		hi = 1
	}
	if !s.verify(job, WhatIfDelta{OnlyChain: ci + 1, ExtraProcs: hi}) {
		return 0 // should not happen; fail closed rather than suggest junk
	}
	// Binary search the minimal admitting growth (feasibility is monotone
	// in capacity: growth only raises availability pointwise).
	lo := 0 // known infeasible (the plan just failed)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if s.verify(job, WhatIfDelta{OnlyChain: ci + 1, ExtraProcs: mid}) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// widthSlack returns the minimal width reduction (in processors, applied
// as a constant-area width cap at failed.Procs-k) admitting chain ci on
// the current machine, or 0 when narrowing does not help or does not
// apply (malleable tasks already narrow themselves).
func (s *Scheduler) widthSlack(job Job, ci int, failed Task) int {
	if failed.Malleable || failed.Procs <= 1 {
		return 0
	}
	lo := failed.Procs - maxWidthScan
	if lo < 1 {
		lo = 1
	}
	for w := failed.Procs - 1; w >= lo; w-- {
		if s.verify(job, WhatIfDelta{OnlyChain: ci + 1, WidthCap: w}) {
			return failed.Procs - w
		}
	}
	return 0
}

// suggest picks the cheapest verified delta across all chains: deadline
// slack first (no hardware, no quality loss), then width reduction
// (degraded but self-served), then machine growth, then a combined
// growth+extension fallback that exists for every intrinsically feasible
// job.
func (s *Scheduler) suggest(job Job, chains []ChainDiagnosis) *WhatIfDelta {
	best := func(pick func(ChainDiagnosis) (WhatIfDelta, float64)) *WhatIfDelta {
		var out *WhatIfDelta
		bestCost := inf
		for _, cd := range chains {
			if cd.Schedulable {
				continue
			}
			d, cost := pick(cd)
			if cost > 0 && cost < bestCost {
				dd := d
				out, bestCost = &dd, cost
			}
		}
		return out
	}
	if d := best(func(cd ChainDiagnosis) (WhatIfDelta, float64) {
		return WhatIfDelta{OnlyChain: cd.Chain + 1, ExtraDeadline: cd.Slack.ExtraDeadline}, cd.Slack.ExtraDeadline
	}); d != nil {
		return d
	}
	if d := best(func(cd ChainDiagnosis) (WhatIfDelta, float64) {
		if cd.Slack.ReducedWidth == 0 {
			return WhatIfDelta{}, 0
		}
		return WhatIfDelta{OnlyChain: cd.Chain + 1, WidthCap: cd.WantProcs - cd.Slack.ReducedWidth},
			float64(cd.Slack.ReducedWidth)
	}); d != nil {
		return d
	}
	if d := best(func(cd ChainDiagnosis) (WhatIfDelta, float64) {
		return WhatIfDelta{OnlyChain: cd.Chain + 1, ExtraProcs: cd.Slack.ExtraProcs}, float64(cd.Slack.ExtraProcs)
	}); d != nil {
		return d
	}
	// Combined fallback: grow the machine past peak + widest task, then
	// extend deadlines by the minimal amount the grown machine needs.
	for ci := range job.Chains {
		if chains[ci].Schedulable {
			continue
		}
		wmax := 0
		for _, t := range job.Chains[ci].Tasks {
			if w := taskWidth(t); w > wmax {
				wmax = w
			}
		}
		grow := s.prof.peakUsed()
		if c := s.prof.capacity; wmax > c {
			grow += wmax - c
		}
		if grow < 1 {
			grow = 1
		}
		if need := s.deadlineSlack(job, ci, grow); need > 0 {
			return &WhatIfDelta{OnlyChain: ci + 1, ExtraProcs: grow, ExtraDeadline: need}
		}
		if s.verify(job, WhatIfDelta{OnlyChain: ci + 1, ExtraProcs: grow}) {
			return &WhatIfDelta{OnlyChain: ci + 1, ExtraProcs: grow}
		}
	}
	return nil
}
