package core

// Counterfactual what-if probes.
//
// A rejected job raises the question a tunability-aware resource manager
// exists to answer: what would it have taken to admit it?  WhatIf replans
// a job against a fork of the live schedule under an operator-specified
// delta — extra processors, extra deadline, a narrower width, a single
// candidate chain — without mutating any scheduler state.  The fork is a
// deep copy of the capacity profile (re-indexed, so probes stay
// near-logarithmic), with diagnosis and statistics stripped; the
// live scheduler is bit-identical before and after any number of probes
// (enforced by the proftest op-stream differencing property test).

// WhatIfDelta describes a counterfactual relaxation of an admission
// decision.  The zero value is "replan the job exactly as submitted".
type WhatIfDelta struct {
	// ExtraProcs grows (or, if negative, shrinks) the machine by this many
	// processors for the probe.  A shrink below the committed peak usage
	// makes the probe fail outright (reservations are never preempted).
	ExtraProcs int `json:"extra_procs,omitempty"`
	// ExtraDeadline uniformly extends every task deadline of the job by
	// this much (absolute deadlines move later; relative structure is
	// preserved).  Negative values tighten deadlines.
	ExtraDeadline float64 `json:"extra_deadline,omitempty"`
	// WidthCap, when positive, caps task width at WidthCap processors:
	// a non-malleable task wider than the cap is stretched at constant
	// area (Procs*Duration preserved, the tunability story of Section 5.4);
	// a malleable task has its degree of concurrency clamped.
	WidthCap int `json:"width_cap,omitempty"`
	// OnlyChain, when positive, restricts planning to the single candidate
	// chain with index OnlyChain-1 (1-based so the zero value means "all
	// chains", keeping the zero delta a no-op).
	OnlyChain int `json:"only_chain,omitempty"`
}

// applyTo returns a copy of the job with the delta's job-side relaxations
// applied (deadline extension, width cap, chain restriction).  The input
// job is never modified; ExtraProcs is machine-side and handled by WhatIf.
func (d WhatIfDelta) applyTo(job Job) Job {
	out := job
	chains := job.Chains
	if d.OnlyChain > 0 && d.OnlyChain <= len(job.Chains) {
		chains = job.Chains[d.OnlyChain-1 : d.OnlyChain]
	}
	out.Chains = make([]Chain, len(chains))
	for i, c := range chains {
		cc := Chain{Name: c.Name, Quality: c.Quality, Tasks: make([]Task, len(c.Tasks))}
		for j, t := range c.Tasks {
			if d.ExtraDeadline != 0 {
				t.Deadline += d.ExtraDeadline
			}
			if d.WidthCap > 0 {
				if t.Malleable {
					if t.MaxProcs > d.WidthCap {
						t.MaxProcs = d.WidthCap
					}
				} else if t.Procs > d.WidthCap {
					area := float64(t.Procs) * t.Duration
					t.Procs = d.WidthCap
					t.Duration = area / float64(d.WidthCap)
				}
			}
			cc.Tasks[j] = t
		}
		out.Chains[i] = cc
	}
	return out
}

// Fork returns an isolated scratch copy of the scheduler: the capacity
// profile is deep-copied (with a fresh segment-tree index when the
// original is indexed), the diagnosis callback is stripped, and statistics
// start from zero.  Planning on the fork never observes or affects the live
// schedule.
func (s *Scheduler) Fork() *Scheduler {
	o := s.opts
	o.Diagnosis = nil
	return &Scheduler{prof: s.prof.clone(), opts: o}
}

// WhatIf replans the job on a fork of the live schedule under the given
// delta, returning the placement the relaxed job would have received and
// whether it is admissible.  The live scheduler is not mutated, emits no
// diagnoses, and accumulates no statistics; with the profile
// index enabled (the default) each probe costs the same near-logarithmic
// work as a real planning pass.
func (s *Scheduler) WhatIf(job Job, d WhatIfDelta) (*Placement, bool) {
	return WhatIfOn(s.Fork(), job, d)
}

// WhatIfOn replays the job under the delta on an already-forked scratch
// scheduler (see Fork).  It exists so callers who must hold a lock only
// for the fork itself — e.g. a federated shard probing a counterfactual —
// can run the replanning outside their critical section.  The fork is
// consumed: its capacity may be altered by ExtraProcs.
func WhatIfOn(f *Scheduler, job Job, d WhatIfDelta) (*Placement, bool) {
	if d.ExtraProcs != 0 {
		c := f.prof.capacity + d.ExtraProcs
		if c < 1 || f.prof.SetCapacity(c) != nil {
			return nil, false // cannot shrink below committed reservations
		}
	}
	pl, ok := f.Plan(d.applyTo(job))
	if ok && d.OnlyChain > 0 {
		// Report the chain index in the caller's (unrestricted) numbering.
		pl.Chain = d.OnlyChain - 1
	}
	return pl, ok
}
