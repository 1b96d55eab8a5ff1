package core

import (
	"testing"
)

// twoChainJob offers a wide-fast chain and a narrow-slow chain.
func twoChainJob(id int, release float64) Job {
	return Job{ID: id, Release: release, Chains: []Chain{
		{Name: "wide", Quality: 1, Tasks: []Task{
			{Name: "t", Procs: 4, Duration: 10, Deadline: release + 40},
		}},
		{Name: "narrow", Quality: 0.5, Tasks: []Task{
			{Name: "t", Procs: 1, Duration: 30, Deadline: release + 40},
		}},
	}}
}

func TestStatsProbeAndChainCounters(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	if _, err := s.Admit(twoChainJob(1, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ChainsTried != 2 {
		t.Fatalf("ChainsTried = %d, want 2", st.ChainsTried)
	}
	if st.HolesProbed < 2 { // at least one probe per chain
		t.Fatalf("HolesProbed = %d, want >= 2", st.HolesProbed)
	}
	if st.PlanFailures != 0 {
		t.Fatalf("PlanFailures = %d, want 0", st.PlanFailures)
	}

	// Saturate, then fail a rigid urgent job: counters keep growing.
	if _, err := s.Admit(Job{ID: 2, Chains: []Chain{
		{Quality: 1, Tasks: []Task{{Procs: 4, Duration: 100, Deadline: 110}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(Job{ID: 3, Chains: []Chain{
		{Quality: 1, Tasks: []Task{{Procs: 4, Duration: 5, Deadline: 20}}},
	}}); err == nil {
		t.Fatal("infeasible job admitted")
	}
	st = s.Stats()
	if st.ChainsTried != 4 {
		t.Fatalf("ChainsTried = %d, want 4", st.ChainsTried)
	}
	if st.PlanFailures != 1 {
		t.Fatalf("PlanFailures = %d, want 1", st.PlanFailures)
	}
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

func TestStatsCountersEngineParity(t *testing.T) {
	// Probes are counted at the one choke point, earliestFitOn, so every
	// chain tried costs at least one probe.
	s := NewScheduler(8, 0, nil)
	for i := 0; i < 6; i++ {
		s.Admit(twoChainJob(i, float64(i)*2))
	}
	st := s.Stats()
	if st.ChainsTried != 12 {
		t.Fatalf("ChainsTried = %d, want 12", st.ChainsTried)
	}
	if st.HolesProbed < st.ChainsTried {
		t.Fatalf("HolesProbed = %d < ChainsTried = %d", st.HolesProbed, st.ChainsTried)
	}
}
