package slo

// Cross-process SLO federation: EngineState is the exportable form of an
// engine's objective state — cumulative conformance counters plus the raw
// good/bad totals of each objective's two burn windows, served under
// "state" on /slo.  Exporting the window totals (rather than the derived
// burn rates) is what lets an aggregator RE-RUN burn-rate alerting over
// the merged cluster view: the merged burn of an objective is
// (Σ bad)/(Σ total)/budget across nodes, which is not derivable from
// per-node burn rates alone.

// ObjectiveState is one objective's exportable burn-window state.
type ObjectiveState struct {
	Name   string  `json:"name"`
	Budget float64 `json:"budget"`
	// Active reports whether the objective is armed (a regression phase
	// needs its first sample); an inactive objective never alerts.
	Active     bool  `json:"active"`
	ShortBad   int64 `json:"short_bad"`
	ShortTotal int64 `json:"short_total"`
	LongBad    int64 `json:"long_bad"`
	LongTotal  int64 `json:"long_total"`
}

// EngineState is a point-in-time export of an engine's SLO state, made to
// be merged across processes (MergeStates) and re-alerted (Burns).
type EngineState struct {
	Admitted       int64   `json:"admitted"`
	Rejected       int64   `json:"rejected"`
	Completed      int64   `json:"completed"`
	InFlight       int64   `json:"in_flight"`
	DeadlineMisses int64   `json:"deadline_misses"`
	OverAdmissions int64   `json:"over_admissions"`
	BurnThreshold  float64 `json:"burn_threshold"`

	Objectives []ObjectiveState `json:"objectives,omitempty"`
}

// objectiveLatency names the admission-latency objective in EngineState
// and in its alerts.
const objectiveLatency = "admit-latency"

// exportState captures the engine's current SLO state for a cluster
// merge.  A nil engine exports the zero state.
func (e *Engine) exportState() EngineState {
	if e == nil {
		return EngineState{}
	}
	e.mu.Lock()
	st := EngineState{
		InFlight:      int64(len(e.inflight)),
		BurnThreshold: burnThreshold,
	}
	for _, o := range e.objectives {
		os := ObjectiveState{Name: o.name, Budget: errorBudget, Active: o.seen}
		os.ShortBad, os.ShortTotal = o.short.totals()
		os.LongBad, os.LongTotal = o.long.totals()
		st.Objectives = append(st.Objectives, os)
	}
	e.mu.Unlock()
	st.Admitted = e.admitted.Value()
	st.Rejected = e.rejected.Value()
	st.Completed = e.completed.Value()
	st.DeadlineMisses = e.misses.Value()
	st.OverAdmissions = e.overAdmissions.Value()
	return st
}

// MergeStates folds per-node engine states into one cluster state:
// counters and window totals add, an objective is active if active
// anywhere, budgets and the burn threshold take the first non-zero value
// (the fleet is expected to share one SLO config; a disagreement keeps
// the first node's — strictest-deployed — policy).
func MergeStates(states ...EngineState) EngineState {
	var out EngineState
	objs := make(map[string]*ObjectiveState)
	var order []string
	for _, st := range states {
		out.Admitted += st.Admitted
		out.Rejected += st.Rejected
		out.Completed += st.Completed
		out.InFlight += st.InFlight
		out.DeadlineMisses += st.DeadlineMisses
		out.OverAdmissions += st.OverAdmissions
		if out.BurnThreshold == 0 {
			out.BurnThreshold = st.BurnThreshold
		}
		for _, o := range st.Objectives {
			m, ok := objs[o.Name]
			if !ok {
				cp := o
				objs[o.Name] = &cp
				order = append(order, o.Name)
				continue
			}
			if m.Budget == 0 {
				m.Budget = o.Budget
			}
			m.Active = m.Active || o.Active
			m.ShortBad += o.ShortBad
			m.ShortTotal += o.ShortTotal
			m.LongBad += o.LongBad
			m.LongTotal += o.LongTotal
		}
	}
	for _, name := range order {
		out.Objectives = append(out.Objectives, *objs[name])
	}
	return out
}

// ObjectiveBurn is one objective's burn rates over a (possibly merged)
// state, with the multi-window alert predicate applied.
type ObjectiveBurn struct {
	Objective string  `json:"objective"`
	Short     float64 `json:"short_burn"`
	Long      float64 `json:"long_burn"`
	Alerting  bool    `json:"alerting"`
}

// Burns re-runs the engine's burn-rate computation over the state: for
// each active objective, burn = (bad/total)/budget per window, and
// Alerting when both windows meet the threshold — exactly the engine's
// multi-window alert rule, applied to whatever (merged) totals the state
// carries.
func (s EngineState) Burns() []ObjectiveBurn {
	thr := s.BurnThreshold
	if thr <= 0 {
		thr = 2
	}
	burn := func(bad, total int64, budget float64) float64 {
		if total == 0 {
			return 0
		}
		rate := float64(bad) / float64(total)
		if budget <= 0 {
			if bad > 0 {
				return clampInf(rate / 1e-12)
			}
			return 0
		}
		return rate / budget
	}
	var out []ObjectiveBurn
	for _, o := range s.Objectives {
		if !o.Active {
			continue
		}
		b := ObjectiveBurn{
			Objective: o.Name,
			Short:     burn(o.ShortBad, o.ShortTotal, o.Budget),
			Long:      burn(o.LongBad, o.LongTotal, o.Budget),
		}
		b.Alerting = b.Short >= thr && b.Long >= thr
		out = append(out, b)
	}
	return out
}
