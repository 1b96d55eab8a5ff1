package core

// PlacementEngine selects how the scheduler searches the processor-time
// plane for a task's slot.  Both engines return identical answers (tested);
// they differ only in mechanics and cost, and exist as an ablation of the
// paper's maximal-hole bookkeeping.
type PlacementEngine int

const (
	// EngineProfile scans the piecewise-constant availability profile
	// directly (the default; fastest).
	EngineProfile PlacementEngine = iota
	// EngineHoles enumerates maximal holes per query, the literal
	// formulation in Section 5.2 of the paper.
	EngineHoles
)

// TieBreak selects how the scheduler chooses among the schedulable chains of
// a tunable job.
type TieBreak int

const (
	// TieBreakPaper is the full rule from Section 5.2: earliest finish
	// time, then higher utilization over the job's [release, finish]
	// window, then lexicographically smaller cumulative resource prefix,
	// then lower chain index.
	TieBreakPaper TieBreak = iota
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
	// TieBreakPaper (the paper notes its rule "finds the job configuration
	// which achieves the earliest finish time").
	TieBreakUtilFirst
	// TieBreakMaxQuality maximizes the chosen chain's output quality
	// first, then falls back to the paper rule.  Section 5.1 notes that in
	// practice the chains of a tunable application have different
	// qualities and "the issue then is of maximizing the achieved job
	// quality"; this policy implements that objective.
	TieBreakMaxQuality
)

// MalleablePolicy selects how processor counts are chosen for malleable
// tasks.
type MalleablePolicy int

const (
	// MalleableDescending tries processor counts from the task's degree of
	// concurrency downward and takes the first count whose placement meets
	// the deadline (Section 5.4: "starting from the highest number of
	// processors the task can use").
	MalleableDescending MalleablePolicy = iota
	// MalleableEarliestFinish evaluates every processor count and picks the
	// one whose placement finishes earliest (ties to the higher count).
	MalleableEarliestFinish
)

// ProfileIndexMode selects whether the scheduler's capacity profile carries
// the segment-tree index (see index.go).  Both modes return identical
// answers to every probe (enforced by the differential oracle harness);
// they differ only in cost.
type ProfileIndexMode int

const (
	// ProfileIndexOn (the default) attaches the segment-tree index:
	// MinAvailOn is one range-min query, EarliestFit skips blocked
	// stretches by tree descent, MaximalHoles extends rectangles by
	// descent.  Admission cost stays near-logarithmic in the number of
	// committed reservations.
	ProfileIndexOn ProfileIndexMode = iota
	// ProfileIndexOff keeps the linear reference path: every probe scans
	// the segment list.  Retained as the oracle for differential tests
	// and as an ablation baseline.
	ProfileIndexOff
)

// ChainPlacer selects how the tasks of one chain are placed.
type ChainPlacer int

const (
	// PlaceGreedy places each task at its earliest feasible start and never
	// revisits the decision (the paper's heuristic).
	PlaceGreedy ChainPlacer = iota
	// PlaceBacktrack retries earlier tasks at later slots when a successor
	// cannot be placed, within a bounded number of attempts.  An extension:
	// the paper notes the underlying problem is NP-hard and stops at the
	// greedy rule.
	PlaceBacktrack
)

// Options configures a Scheduler.  The zero value is the configuration used
// throughout the paper's evaluation.
type Options struct {
	Engine      PlacementEngine
	TieBreak    TieBreak
	Malleable   MalleablePolicy
	ChainPlacer ChainPlacer
	// ProfileIndex selects whether the capacity profile keeps a
	// segment-tree index over availability (default: on).  The index
	// never changes scheduling decisions, only their cost.
	ProfileIndex ProfileIndexMode
	// BacktrackBudget bounds the total number of per-task placement
	// attempts when ChainPlacer is PlaceBacktrack.  Zero means 64.
	BacktrackBudget int
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

func (o Options) backtrackBudget() int {
	if o.BacktrackBudget <= 0 {
		return 64
	}
	return o.BacktrackBudget
}
