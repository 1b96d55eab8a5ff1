package core

// TieBreak selects how the scheduler chooses among the schedulable chains of
// a tunable job.
type TieBreak int

const (
	// tieBreakPaper is the full rule from Section 5.2: earliest finish
	// time, then higher utilization over the job's [release, finish]
	// window, then lexicographically smaller cumulative resource prefix,
	// then lower chain index.
	tieBreakPaper TieBreak = iota
	// TieBreakFirstFit takes the first chain (in declaration order) that is
	// schedulable, ignoring finish times.
	TieBreakFirstFit
	// TieBreakMinArea prefers the schedulable chain that reserves the least
	// total processor-time, breaking ties by earliest finish.
	TieBreakMinArea
	// TieBreakUtilFirst applies Section 5.2's wording literally: maximize
	// utilization over the job's [release, finish] window first, then the
	// smaller resource prefix, then earlier finish.  With the synthetic
	// task system's equal-area chains this usually coincides with
	// tieBreakPaper (the paper notes its rule "finds the job configuration
	// which achieves the earliest finish time").
	TieBreakUtilFirst
	// TieBreakMaxQuality maximizes the chosen chain's output quality
	// first, then falls back to the paper rule.  Section 5.1 notes that in
	// practice the chains of a tunable application have different
	// qualities and "the issue then is of maximizing the achieved job
	// quality"; this policy implements that objective.
	TieBreakMaxQuality
)

// ProfileIndexMode selects whether the scheduler's capacity profile carries
// the segment-tree index (see index.go).  Both modes return identical
// answers to every probe (enforced by the differential oracle harness);
// they differ only in cost.
type ProfileIndexMode int

const (
	// profileIndexOn (the default) attaches the segment-tree index:
	// MinAvailOn is one range-min query, EarliestFit skips blocked
	// stretches by tree descent, MaximalHoles extends rectangles by
	// descent.  Admission cost stays near-logarithmic in the number of
	// committed reservations.
	profileIndexOn ProfileIndexMode = iota
	// ProfileIndexOff keeps the linear reference path: every probe scans
	// the segment list.  Retained as the oracle for differential tests
	// and as an ablation baseline.
	ProfileIndexOff
)

// Options configures a Scheduler.  The zero value is the configuration used
// throughout the paper's evaluation.
type Options struct {
	TieBreak TieBreak
	// ProfileIndex selects whether the capacity profile keeps a
	// segment-tree index over availability (default: on).  The index
	// never changes scheduling decisions, only their cost.
	ProfileIndex ProfileIndexMode
	// Diagnosis, if non-nil, receives a rejection explanation for every
	// failed planning pass (see PlanDiagnosis).  It travels inside Options,
	// so it survives scheduler rebuilds (e.g. the dynamic arbitrator's
	// capacity renegotiations), and sits entirely off the admission hot
	// path — a successful plan never touches it, and a failed plan pays
	// one nil check when it is absent.  The diagnosis replays run on
	// forks of the profile, so installing a sink never changes admission
	// decisions or scheduler statistics.
	Diagnosis func(*PlanDiagnosis)
}
