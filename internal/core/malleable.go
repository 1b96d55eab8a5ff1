package core

// placeMalleableOn chooses a processor count and slot for a malleable task
// against an explicit profile.  With linear speedup, p processors run the
// task for Work/p time.  Processor counts are capped by the task's degree
// of concurrency and the machine size, and tried from the highest down: the
// first count whose placement meets the deadline wins (Section 5.4:
// "starting from the highest number of processors the task can use").
func (s *Scheduler) placeMalleableOn(prof *Profile, t Task, index int, est float64) (TaskPlacement, bool) {
	maxP := t.MaxProcs
	if m := prof.capacity; maxP > m {
		maxP = m
	}
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
