package core

import (
	"math"
	"testing"
)

// benchProfile builds a profile carrying n committed unit reservations whose
// staggered windows leave ~2n breakpoints live, with a shallow standing load
// so wide queries must march deep into the timeline before fitting.
func benchProfile(n int, indexed bool) *Profile {
	p := NewProfile(64, 0)
	if indexed {
		p.EnableIndex() // NewProfile leaves the index off otherwise
	}
	for i := 0; i < n; i++ {
		start := float64(i) * 0.5
		if err := p.Reserve(1, start, start+3); err != nil {
			panic(err)
		}
	}
	// Warm: force the (lazy) rebuild out of the measured region.
	p.MinAvailOn(0, 1)
	return p
}

// BenchmarkProfileEarliestFitIndexed measures the headline query — "first
// time a 60-wide, 5-long window fits" — against 10k committed reservations.
// The standing load keeps 58 of 64 processors free, so the query cannot fit
// until after the last reservation drains: the linear path scans every
// segment, the indexed path descends the tree.
func BenchmarkProfileEarliestFitIndexed(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile(10000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.earliestFitIndexed(60, 5, 0, math.Inf(1)); !ok {
			b.Fatal("no fit")
		}
	}
}

// BenchmarkProfileEarliestFitLinear is the reference-path twin of the
// benchmark above (same profile contents, same query).
func BenchmarkProfileEarliestFitLinear(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile(10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.earliestFitLinear(60, 5, 0, math.Inf(1)); !ok {
			b.Fatal("no fit")
		}
	}
}

// BenchmarkProfileMinAvailIndexed / Linear: the other hot probe, over a
// window spanning most of the committed timeline.
func BenchmarkProfileMinAvailIndexed(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile(10000, true)
	hi := p.LastBreak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.minAvailOnIndexed(1, hi-1)
	}
}

func BenchmarkProfileMinAvailLinear(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile(10000, false)
	hi := p.LastBreak()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.minAvailOnLinear(1, hi-1)
	}
}

// benchScheduler commits n staggered single-proc reservations through the
// scheduler so its profile reaches the same 10k-reservation regime.
func benchScheduler(n int, mode ProfileIndexMode) *Scheduler {
	s := NewScheduler(64, 0, &Options{ProfileIndex: mode})
	for i := 0; i < n; i++ {
		start := float64(i) * 0.5
		if err := s.ReserveSlot(1, start, start+3); err != nil {
			panic(err)
		}
	}
	s.Profile().MinAvailOn(0, 1) // warm the lazy rebuild
	return s
}

// benchJob is a three-chain tunable job released mid-timeline, shaped so
// planning probes both wide (fails until the tail) and narrow chains.
func benchJob(id int, release float64) Job {
	return Job{ID: id, Release: release, Chains: []Chain{
		{Quality: 1.0, Tasks: []Task{{Procs: 60, Duration: 4, Deadline: release + 6000}}},
		{Quality: 0.7, Tasks: []Task{{Procs: 8, Duration: 10, Deadline: release + 6000}}},
		{Quality: 0.4, Tasks: []Task{{Procs: 2, Duration: 20, Deadline: release + 6000}}},
	}}
}

// BenchmarkSchedulerPlan10kIndexed measures a full admission plan (all
// chains, greedy tie-break) against 10k committed reservations with the
// index on; Plan is read-only, so every iteration sees the same profile.
func BenchmarkSchedulerPlan10kIndexed(b *testing.B) {
	b.ReportAllocs()
	s := benchScheduler(10000, profileIndexOn)
	job := benchJob(0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Plan(job); !ok {
			b.Fatal("plan failed")
		}
	}
}

// BenchmarkSchedulerPlan10kLinear is the reference-path twin.
func BenchmarkSchedulerPlan10kLinear(b *testing.B) {
	b.ReportAllocs()
	s := benchScheduler(10000, ProfileIndexOff)
	job := benchJob(0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Plan(job); !ok {
			b.Fatal("plan failed")
		}
	}
}
