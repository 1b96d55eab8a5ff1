package core

import (
	"math/rand"
	"testing"
)

// benchStorm builds a loaded scheduler plus a job mix with a substantial
// rejection rate, so the Plan benchmarks exercise both outcomes.
func benchStorm(opts *Options) (*Scheduler, []Job) {
	rng := rand.New(rand.NewSource(1))
	s := NewScheduler(16, 0, opts)
	for i := 0; i < 400; i++ {
		start := rng.Float64() * 800
		dur := 1 + rng.Float64()*10
		procs := 1 + rng.Intn(8)
		if slot, ok := s.Profile().EarliestFit(procs, dur, start, inf); ok {
			if err := s.ReserveSlot(procs, slot, slot+dur); err != nil {
				panic(err)
			}
		}
	}
	jobs := make([]Job, 0, 256)
	for i := 0; i < 256; i++ {
		release := rng.Float64() * 800
		dur := 1 + rng.Float64()*8
		jobs = append(jobs, Job{ID: i, Release: release, Chains: []Chain{{Tasks: []Task{{
			Procs:    1 + rng.Intn(16),
			Duration: dur,
			Deadline: release + dur*(1+rng.Float64()), // often tight
		}}}}})
	}
	return s, jobs
}

// BenchmarkPlanNilDiag is the zero-cost half of the forensics benchmark
// pair: the plan path with no diagnosis sink installed must match the
// pre-forensics planner (one nil check on the failure branch, zero
// allocations beyond the plan itself).
func BenchmarkPlanNilDiag(b *testing.B) {
	s, jobs := benchStorm(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(jobs[i%len(jobs)])
	}
}

// BenchmarkPlanDiagnosed measures the opt-in cost of rejection
// explanation: every failed plan runs the per-chain failure analysis,
// near-miss probe and verified slack search.
func BenchmarkPlanDiagnosed(b *testing.B) {
	var sink *PlanDiagnosis
	s, jobs := benchStorm(&Options{Diagnosis: func(d *PlanDiagnosis) { sink = d }})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(jobs[i%len(jobs)])
	}
	_ = sink
}
