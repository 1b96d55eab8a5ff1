package core_test

// The differential oracle harness: the segment-tree-indexed profile must
// agree *exactly* — same ints, bitwise-same floats, same hole enumerations,
// same mutation outcomes, same segment structure — with the linear
// reference implementation on every operation of randomized
// reserve/trim/probe streams.  Sequences that diverge are shrunk to a
// minimal replayable counterexample by the harness (see
// internal/core/proftest).

import (
	"math"
	"math/rand"
	"testing"

	"milan/internal/core"
	"milan/internal/core/proftest"
)

// TestOracleRandomOpStreams replays >10k randomized operations per
// capacity class through the indexed/linear pair.  Covers MinAvailOn,
// EarliestFit (direct and fit-then-reserve), MaximalHoles, BusyUpTo/BusyOn,
// TrimBefore, and after every single operation the Segments invariants (sorted breakpoints more than Eps
// apart, usage within capacity, idle final segment) plus exact
// segment-structure equality.
func TestOracleRandomOpStreams(t *testing.T) {
	const opsPerStream = 700
	capacities := []int{1, 2, 3, 5, 8, 17, 32}
	seedsPer := 3
	total := 0
	for _, capacity := range capacities {
		for s := 0; s < seedsPer; s++ {
			rng := rand.New(rand.NewSource(int64(1000*capacity + s)))
			ops := proftest.RandomOps(rng, opsPerStream, capacity)
			proftest.Check(t, capacity, ops)
			total += len(ops)
		}
	}
	if total < 10000 {
		t.Fatalf("only %d ops replayed, want >= 10000", total)
	}
}

// TestOracleEpsilonJitterStorm hammers the Eps-tolerant boundary
// predicates: every generated time sits within a couple of tolerance units
// of a shared integer grid, so nearly every reserve boundary and probe
// endpoint lands in the dedup band of an existing breakpoint.
func TestOracleEpsilonJitterStorm(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]proftest.Op, 0, 800)
		for i := 0; i < 800; i++ {
			base := float64(rng.Intn(40))
			jit := (rng.Float64()*2 - 1) * 2.4e-9 // up to ±2.4 Eps
			op := proftest.Op{
				Procs: 1 + rng.Intn(6),
				A:     base + jit,
				B:     float64(1+rng.Intn(8)) + (rng.Float64()*2-1)*1.2e-9,
				C:     math.Inf(1),
			}
			switch rng.Intn(5) {
			case 0:
				op.Kind = proftest.OpReserve
			case 1:
				op.Kind = proftest.OpReserveFit
			case 2:
				op.Kind = proftest.OpMinAvail
			case 3:
				op.Kind = proftest.OpEarliestFit
			default:
				op.Kind = proftest.OpHoles
			}
			ops = append(ops, op)
		}
		proftest.Check(t, 6, ops)
	}
}

// TestOracleTrimHeavyChurn mimics the arbitrator's steady state: arrivals
// reserve at their earliest fit while the clock advances and TrimBefore
// folds history, so the index is structurally invalidated and rebuilt over
// and over.  The fold-aware trim must never desynchronize the pair.
func TestOracleTrimHeavyChurn(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		clock := 0.0
		ops := make([]proftest.Op, 0, 1500)
		for i := 0; i < 1500; i++ {
			clock += rng.Float64() * 2
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, proftest.Op{Kind: proftest.OpTrim, Procs: 1, A: clock, B: 1})
			case 1:
				ops = append(ops, proftest.Op{Kind: proftest.OpHoles, Procs: 1 + rng.Intn(8),
					A: clock, B: 1 + rng.Float64()*10, C: math.Inf(1)})
			default:
				ops = append(ops, proftest.Op{Kind: proftest.OpReserveFit, Procs: 1 + rng.Intn(8),
					A: clock, B: 0.5 + rng.Float64()*12, C: math.Inf(1)})
			}
		}
		proftest.Check(t, 8, ops)
	}
}

// TestOracleSchedulerStatsIdentical drives the full greedy scheduler —
// tunable jobs, malleable tasks, both tie-break families — with the index
// on and off, and requires bit-identical Stats: the index must never change
// a scheduling decision, an admission count, or an achieved quality.
func TestOracleSchedulerStatsIdentical(t *testing.T) {
	mkJob := func(rng *rand.Rand, id int, release float64) core.Job {
		nchains := 1 + rng.Intn(3)
		job := core.Job{ID: id, Release: release}
		for c := 0; c < nchains; c++ {
			ntasks := 1 + rng.Intn(3)
			ch := core.Chain{Quality: 0.4 + 0.2*float64(c)}
			est := release
			for k := 0; k < ntasks; k++ {
				work := 2 + rng.Float64()*10
				procs := 1 + rng.Intn(6)
				dur := work / float64(procs)
				deadline := est + dur*(1.4+rng.Float64())
				task := core.Task{Procs: procs, Duration: dur, Deadline: deadline}
				if rng.Intn(3) == 0 {
					task = core.Task{Malleable: true, Work: work, MaxProcs: procs + rng.Intn(4),
						Deadline: deadline}
				}
				ch.Tasks = append(ch.Tasks, task)
				est = deadline
			}
			job.Chains = append(job.Chains, ch)
		}
		return job
	}
	for _, tb := range []core.TieBreak{core.TieBreakPaper, core.TieBreakMaxQuality} {
		rngA := rand.New(rand.NewSource(42))
		rngB := rand.New(rand.NewSource(42))
		on := core.NewScheduler(16, 0, &core.Options{TieBreak: tb})
		off := core.NewScheduler(16, 0, &core.Options{TieBreak: tb, ProfileIndex: core.ProfileIndexOff})
		if !on.Profile().IndexEnabled() || off.Profile().IndexEnabled() {
			t.Fatal("ProfileIndex option not threaded through NewScheduler")
		}
		clock := 0.0
		for id := 0; id < 400; id++ {
			clock += rngA.Float64() * 3
			rngB.Float64()
			jobA := mkJob(rngA, id, clock)
			jobB := mkJob(rngB, id, clock)
			plA, errA := on.Admit(jobA)
			plB, errB := off.Admit(jobB)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("tiebreak %v job %d: indexed err=%v, linear err=%v", tb, id, errA, errB)
			}
			if errA == nil {
				if plA.Chain != plB.Chain || plA.Finish() != plB.Finish() || plA.Area() != plB.Area() {
					t.Fatalf("tiebreak %v job %d: placements diverge: %+v vs %+v", tb, id, plA, plB)
				}
			}
			if id%37 == 0 {
				on.Observe(clock)
				off.Observe(clock)
			}
		}
		sa, sb := on.Stats(), off.Stats()
		if sa.Admitted != sb.Admitted || sa.Rejected != sb.Rejected ||
			sa.QualitySum != sb.QualitySum ||
			sa.ReservedArea != sb.ReservedArea ||
			sa.ChainsTried != sb.ChainsTried || sa.PlanFailures != sb.PlanFailures {
			t.Fatalf("tiebreak %v: stats diverge:\nindexed: %+v\nlinear:  %+v", tb, sa, sb)
		}
		if st := on.IndexStats(); !st.Enabled || st.Rebuilds == 0 || st.Descents == 0 {
			t.Fatalf("indexed scheduler did no index work: %+v", st)
		}
		if st := off.IndexStats(); st.Enabled {
			t.Fatalf("linear scheduler unexpectedly indexed: %+v", st)
		}
	}
}
