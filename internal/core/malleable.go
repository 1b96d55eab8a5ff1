package core

import "slices"

// placeMalleableOn chooses a processor count and slot for a malleable task
// against an explicit profile.  With linear speedup, p processors run the
// task for Work/p time.  Processor counts are capped by the task's degree
// of concurrency and the machine size.
func (s *Scheduler) placeMalleableOn(prof *Profile, t Task, index int, est float64) (TaskPlacement, bool) {
	maxP := t.MaxProcs
	if m := prof.Capacity(); maxP > m {
		maxP = m
	}
	switch s.opts.Malleable {
	case MalleableEarliestFinish:
		var best TaskPlacement
		found := false
		for p := maxP; p >= 1; p-- {
			dur := t.Work / float64(p)
			start, ok := s.earliestFitOn(prof, p, dur, est, t.Deadline)
			if !ok {
				continue
			}
			finish := start + dur
			// Ties go to the higher processor count, i.e. the first winner
			// found while scanning downward is kept on equality.
			if !found || timeLess(finish, best.Finish) {
				best = TaskPlacement{Task: index, Start: start, Finish: finish, Procs: p}
				found = true
			}
		}
		return best, found
	default: // MalleableDescending: the paper's rule
		for p := maxP; p >= 1; p-- {
			dur := t.Work / float64(p)
			start, ok := s.earliestFitOn(prof, p, dur, est, t.Deadline)
			if !ok {
				continue
			}
			return TaskPlacement{Task: index, Start: start, Finish: start + dur, Procs: p}, true
		}
		return TaskPlacement{}, false
	}
}

// placeChainBacktrack places a chain with bounded backtracking: when task i
// cannot be placed, task i-1 is retried at the next feasible slot after its
// previous one.  The total number of placement attempts across the chain is
// bounded by Options.BacktrackBudget.  This is an extension beyond the
// paper's greedy rule, used to quantify how much the greedy heuristic loses
// to deeper search (ablation).
func (s *Scheduler) placeChainBacktrack(buf []TaskPlacement, chain Chain, release float64) ([]TaskPlacement, bool) {
	budget := s.opts.backtrackBudget()
	n := len(chain.Tasks)
	out := slices.Grow(buf[:0], n)[:n]
	// minStart[i] is the earliest start we may consider for task i on the
	// current search branch; bumping it past a previous placement forces
	// the next-later slot.
	minStart := make([]float64, n)
	minStart[0] = release

	i := 0
	for i < n {
		if budget <= 0 {
			return out, false
		}
		budget--
		t := chain.Tasks[i]
		est := minStart[i]
		if i > 0 {
			est = maxTime(est, out[i-1].Finish)
		}
		tp, ok := s.placeTask(t, i, est)
		if ok {
			out[i] = tp
			if i+1 < n {
				minStart[i+1] = 0
			}
			i++
			continue
		}
		// Dead end: retry the previous task starting at the next profile
		// breakpoint after its current slot (earlier retries would re-find
		// the same placement).
		for {
			if i == 0 {
				return out, false
			}
			i--
			next, ok := s.prof.NextBreakAfter(out[i].Start)
			if ok {
				minStart[i] = next
				break
			}
			// Task i already sits in the final idle stretch; moving it
			// later cannot help, so back up further.
		}
	}
	return out, true
}
