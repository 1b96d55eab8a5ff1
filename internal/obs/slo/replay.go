package slo

import (
	"fmt"
	"io"
	"sort"

	"milan/internal/obs"
)

// Differential replay: take a flight-recorder snapshot, rebuild the span
// tree of the trace that tripped the trigger, and localize the fault to
// the subsystem whose stage broke its contract.
//
// The contract each stage signs up for:
//
//	planner   the reservation it commits must finish by the deadline
//	          (reservedFinish <= deadline)
//	router    optimistic commits must not race past the spike threshold
//	rebalancer migrations must stay below the storm threshold and
//	          conserve the plane's total capacity
//	runtime   execution must finish by the reserved finish time
//	          (actualFinish <= reservedFinish) without losing committed
//	          work
//	shedder   saturation shedding must respect the configured weights,
//	          quotas and starvation bound
//
// A deadline miss therefore decomposes: if admission already reserved past
// the deadline the planner is at fault (the miss was decided at admission
// time); otherwise if the run overran its reservation the runtime is at
// fault.  The router is convicted by its aggregate trigger, a commit-race
// spike.

// Fault names the subsystem a replay localizes a violation to.
const (
	FaultPlanner    = "planner"
	FaultRouter     = "router"
	FaultRebalancer = "rebalancer"
	FaultRuntime    = "runtime"
	FaultShedder    = "shedder"
	FaultDurability = "durability"
	FaultUnknown    = "unknown"
)

// Verdict is the outcome of replaying one snapshot: the subsystem at
// fault, the stage whose span evidenced it, and the reconstructed numbers
// behind the call.
type Verdict struct {
	Kind   TriggerKind `json:"kind"`
	Trace  uint64      `json:"trace,omitempty"`
	Fault  string      `json:"fault"`
	Stage  string      `json:"stage,omitempty"`
	Reason string      `json:"reason"`

	Deadline       float64 `json:"deadline,omitempty"`
	ReservedFinish float64 `json:"reserved_finish,omitempty"`
	ActualFinish   float64 `json:"actual_finish,omitempty"`

	// Spans is how many spans of the triggering trace the snapshot held.
	Spans int `json:"spans"`
}

func (v Verdict) String() string {
	s := fmt.Sprintf("fault=%s kind=%s", v.Fault, v.Kind)
	if v.Trace != 0 {
		s += fmt.Sprintf(" trace=%d", v.Trace)
	}
	if v.Stage != "" {
		s += " stage=" + v.Stage
	}
	return s + ": " + v.Reason
}

// attr reads a numeric attribute off a span node, ok=false when absent.
func attr(n *obs.SpanNode, key string) (float64, bool) {
	if n == nil || n.Attrs == nil {
		return 0, false
	}
	v, ok := n.Attrs[key]
	return v, ok
}

// Replay localizes a snapshot's trigger to a subsystem.  It is pure: the
// verdict is a function of the snapshot alone, so a snapshot written in
// production replays identically anywhere.
func Replay(s *Snapshot) Verdict {
	if s == nil {
		return Verdict{Fault: FaultUnknown, Reason: "nil snapshot"}
	}
	v := Verdict{Kind: s.Kind, Trace: s.Trace, Fault: FaultUnknown}

	trees := obs.BuildSpanTrees(s.Spans)
	var tree *obs.SpanNode
	if s.Trace != 0 {
		tree = trees[obs.TraceID(s.Trace)]
	}
	if tree != nil {
		tree.Walk(func(*obs.SpanNode) { v.Spans++ })
	}

	// Aggregate triggers localize by construction: the trigger kind names
	// the misbehaving subsystem directly.
	switch s.Kind {
	case TriggerRebalanceStorm:
		v.Fault = FaultRebalancer
		v.Reason = "processor migrations crossed the storm threshold"
		return v
	case TriggerCommitRaceSpike:
		v.Fault = FaultRouter
		v.Reason = "optimistic-commit fallbacks crossed the race threshold"
		return v
	case TriggerFairnessBreach:
		v.Fault = FaultShedder
		v.Reason = "admission shedding broke a fairness invariant"
		return v
	case TriggerCapacityDrift:
		v.Fault = FaultRebalancer
		v.Reason = "plane capacity stopped matching the resource pool"
		return v
	case TriggerMaskingLoss:
		v.Fault = FaultRuntime
		v.Reason = "fault-masking runtime lost committed work"
		return v
	case TriggerDurabilityLoss:
		v.Fault = FaultDurability
		v.Reason = "crash recovery lost acknowledged admission state"
		return v
	}

	// Per-job triggers: reconstruct deadline / reservedFinish / actual
	// finish from the trace's span attributes.
	var run, reserve, plan *obs.SpanNode
	if tree != nil {
		run = tree.FindStage(obs.StageRun)
		reserve = tree.FindStage(obs.StageReserve)
		plan = tree.FindStage(obs.StagePlan)
	}
	if d, ok := attr(run, "deadline"); ok {
		v.Deadline = d
	} else if d, ok := attr(reserve, "deadline"); ok {
		v.Deadline = d
	} else if d, ok := attr(plan, "deadline"); ok {
		v.Deadline = d
	}
	if f, ok := attr(run, "reserved_finish"); ok {
		v.ReservedFinish = f
	} else if f, ok := attr(reserve, "finish"); ok {
		v.ReservedFinish = f
	} else if f, ok := attr(plan, "finish"); ok {
		v.ReservedFinish = f
	}
	if run != nil {
		v.ActualFinish = run.End
	}

	switch s.Kind {
	case TriggerOverAdmission:
		// By construction: admission produced a reservation already past
		// the deadline.  That decision belongs to the planner.
		v.Fault = FaultPlanner
		v.Stage = obs.StagePlan
		v.Reason = "admission reserved past the deadline"
		return v

	case TriggerDeadlineMiss:
		switch {
		case v.Deadline > 0 && v.ReservedFinish > v.Deadline+eps:
			v.Fault = FaultPlanner
			v.Stage = obs.StagePlan
			v.Reason = fmt.Sprintf("reservation finish %.6g already past deadline %.6g at admission",
				v.ReservedFinish, v.Deadline)
		case v.ReservedFinish > 0 && v.ActualFinish > v.ReservedFinish+eps:
			v.Fault = FaultRuntime
			v.Stage = obs.StageRun
			v.Reason = fmt.Sprintf("execution finished %.6g, overran reservation %.6g",
				v.ActualFinish, v.ReservedFinish)
		default:
			v.Reason = "no span evidence contradicts any stage"
		}
		return v

	case TriggerManual:
		v.Reason = "manual snapshot (no anomaly to localize)"
		return v
	}

	v.Reason = "unrecognized trigger kind"
	return v
}

// WriteReplay renders a human-readable replay of the snapshot: the
// verdict, then the triggering trace's span tree (indented, with timing
// and attributes), then the tail of the decision-event log.
func WriteReplay(w io.Writer, s *Snapshot) error {
	if s == nil {
		_, err := fmt.Fprintln(w, "replay: nil snapshot")
		return err
	}
	v := Replay(s)
	if _, err := fmt.Fprintf(w, "flight snapshot kind=%s at=%.6g spans=%d events=%d\n",
		s.Kind, s.At, len(s.Spans), len(s.Events)); err != nil {
		return err
	}
	if s.Note != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", s.Note); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "verdict: %s\n", v); err != nil {
		return err
	}

	trees := obs.BuildSpanTrees(s.Spans)
	if s.Trace != 0 {
		if tree := trees[obs.TraceID(s.Trace)]; tree != nil {
			if _, err := fmt.Fprintf(w, "trace %d:\n", s.Trace); err != nil {
				return err
			}
			if err := writeTree(w, tree, 1); err != nil {
				return err
			}
		}
	}

	// Tail of the decision log (most recent last).
	const tail = 12
	evs := s.Events
	if len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	if len(evs) > 0 {
		if _, err := fmt.Fprintf(w, "last %d decision events:\n", len(evs)); err != nil {
			return err
		}
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "  t=%-10.6g %-12s job=%-5d %s\n",
				ev.Time, ev.Type, ev.Job, ev.Reason); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTree(w io.Writer, n *obs.SpanNode, depth int) error {
	pad := make([]byte, depth*2)
	for i := range pad {
		pad[i] = ' '
	}
	line := fmt.Sprintf("%s%s [%s] %.6g..%.6g", pad, n.Name, n.Stage, n.Start, n.End)
	if n.Err != "" {
		line += " err=" + n.Err
	}
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%.6g", k, n.Attrs[k])
		}
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
