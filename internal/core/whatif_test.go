package core

import (
	"math/rand"
	"testing"
)

func TestWhatIfDeltaApplyToPure(t *testing.T) {
	job := Job{ID: 1, Release: 2, Chains: []Chain{
		{Tasks: []Task{{Procs: 4, Duration: 3, Deadline: 10}, {Procs: 2, Duration: 1, Deadline: 12}}},
		{Tasks: []Task{{Malleable: true, Work: 8, MaxProcs: 4, Deadline: 9}}},
	}}
	orig := Job{ID: 1, Release: 2, Chains: []Chain{
		{Tasks: []Task{{Procs: 4, Duration: 3, Deadline: 10}, {Procs: 2, Duration: 1, Deadline: 12}}},
		{Tasks: []Task{{Malleable: true, Work: 8, MaxProcs: 4, Deadline: 9}}},
	}}
	d := WhatIfDelta{ExtraDeadline: 5, WidthCap: 2, OnlyChain: 1}
	out := d.applyTo(job)
	if len(out.Chains) != 1 {
		t.Fatalf("OnlyChain=1 kept %d chains", len(out.Chains))
	}
	t0 := out.Chains[0].Tasks[0]
	if t0.Procs != 2 || !timeEq(t0.Duration, 6) || !timeEq(t0.Deadline, 15) {
		t.Fatalf("task 0 after delta = %+v, want procs=2 dur=6 deadline=15", t0)
	}
	// Constant area under the width cap.
	if !timeEq(t0.Area(), orig.Chains[0].Tasks[0].Area()) {
		t.Fatalf("width cap changed the task area: %v != %v", t0.Area(), orig.Chains[0].Tasks[0].Area())
	}
	// The input job must be untouched.
	for ci := range orig.Chains {
		for ti := range orig.Chains[ci].Tasks {
			if job.Chains[ci].Tasks[ti] != orig.Chains[ci].Tasks[ti] {
				t.Fatalf("ApplyTo mutated the input job at chain %d task %d", ci, ti)
			}
		}
	}
	// Malleable clamp.
	d2 := WhatIfDelta{WidthCap: 2, OnlyChain: 2}
	m := d2.applyTo(job).Chains[0].Tasks[0]
	if m.MaxProcs != 2 || m.Work != 8 {
		t.Fatalf("malleable after cap = %+v, want MaxProcs=2 Work=8", m)
	}
}

func TestWhatIfShrinkBelowPeakFails(t *testing.T) {
	s := NewScheduler(4, 0, nil)
	if err := s.ReserveSlot(3, 0, 10); err != nil {
		t.Fatal(err)
	}
	job := Job{ID: 1, Chains: []Chain{rigid(1, 1, 100)}}
	if _, ok := s.WhatIf(job, WhatIfDelta{ExtraProcs: -2}); ok {
		t.Fatalf("shrink below committed peak admitted a probe")
	}
	if _, ok := s.WhatIf(job, WhatIfDelta{ExtraProcs: -1}); !ok {
		t.Fatalf("shrink to exactly the committed peak must still plan a 1-wide task")
	}
}

// TestWhatIfIsolation is the probe-isolation property test: a live
// schedule driven by a proftest-style mutation stream stays bit-identical
// to a control schedule driven by the same stream, no matter how many
// WhatIf probes and Diagnose replays are interleaved.  The comparison is
// the same state differencing the differential oracle harness uses
// (profile rendering + invariants), plus the index work counters — probes
// must not even show up as query work on the live profile.
func TestWhatIfIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const capacity = 8
	s := NewScheduler(capacity, 0, nil)
	control := NewProfile(capacity, 0)
	control.EnableIndex()

	probe := func(now float64) {
		job := Job{
			ID:      rng.Int(),
			Release: now + rng.Float64()*10,
			Chains: []Chain{{Tasks: []Task{{
				Procs:    1 + rng.Intn(2*capacity),
				Duration: 0.5 + rng.Float64()*10,
				Deadline: now + 5 + rng.Float64()*20,
			}}}},
		}
		if job.Validate() != nil {
			return
		}
		d := WhatIfDelta{
			ExtraProcs:    rng.Intn(7) - 2,
			ExtraDeadline: rng.Float64() * 30,
			WidthCap:      rng.Intn(capacity + 1),
		}
		s.WhatIf(job, d)
		if _, ok := s.WhatIf(job, WhatIfDelta{}); !ok {
			s.diagnose(job)
		}
	}

	now := 0.0
	for i := 0; i < 300; i++ {
		baseline := s.IndexStats()
		probe(now)
		if got := s.IndexStats(); got != baseline {
			t.Fatalf("op %d: probes changed live index counters: %+v -> %+v", i, baseline, got)
		}

		// One mutation on both the live schedule and the control.
		start := now + rng.Float64()*20
		dur := 0.2 + rng.Float64()*8
		procs := 1 + rng.Intn(capacity)
		switch rng.Intn(3) {
		case 0: // reserve via the scheduler's own allocation pattern
			if slot, ok := s.Profile().EarliestFit(procs, dur, start, inf); ok {
				if err := s.ReserveSlot(procs, slot, slot+dur); err != nil {
					t.Fatalf("op %d: live reserve: %v", i, err)
				}
				if err := control.Reserve(procs, slot, slot+dur); err != nil {
					t.Fatalf("op %d: control reserve: %v", i, err)
				}
			}
		case 1: // trim history
			now += rng.Float64() * 2
			s.Observe(now)
			control.TrimBefore(now)
		case 2: // admit a real job
			job := Job{ID: i, Release: start, Chains: []Chain{{Tasks: []Task{{
				Procs: procs, Duration: dur, Deadline: start + dur*(1+rng.Float64()*3),
			}}}}}
			if pl, ok := s.Plan(job); ok {
				if err := s.Commit(job, pl); err != nil {
					t.Fatalf("op %d: commit: %v", i, err)
				}
				for _, tp := range pl.Tasks {
					if err := control.Reserve(tp.Procs, tp.Start, tp.Finish); err != nil {
						t.Fatalf("op %d: control mirror: %v", i, err)
					}
				}
			}
		}

		probe(now)

		if got, want := s.Profile().String(), control.String(); got != want {
			t.Fatalf("op %d: live profile diverged from control:\n live:    %s\n control: %s", i, got, want)
		}
		if err := s.Profile().CheckInvariants(); err != nil {
			t.Fatalf("op %d: live invariants: %v", i, err)
		}
	}
}
