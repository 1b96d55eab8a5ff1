package slo

import (
	"fmt"

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
//	capacity  resizes must conserve the plane's total capacity against
//	          the resource pool
//	runtime   execution must finish by the reserved finish time
//	          (actualFinish <= reservedFinish) without losing committed
//	          work
//	shedder   saturation shedding must respect the configured weights,
//	          quotas and starvation bound
//
// A deadline miss therefore decomposes: if admission already reserved past
// the deadline the planner is at fault (the miss was decided at admission
// time); otherwise if the run overran its reservation the runtime is at
// fault.

// Fault names the subsystem a replay localizes a violation to.
const (
	faultPlanner  = "planner"
	faultCapacity = "capacity"
	faultRuntime  = "runtime"
	faultShedder  = "shedder"
	faultUnknown  = "unknown"
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
		return Verdict{Fault: faultUnknown, Reason: "nil snapshot"}
	}
	v := Verdict{Kind: s.Kind, Trace: s.Trace, Fault: faultUnknown}

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
	case TriggerFairnessBreach:
		v.Fault = faultShedder
		v.Reason = "admission shedding broke a fairness invariant"
		return v
	case TriggerCapacityDrift:
		v.Fault = faultCapacity
		v.Reason = "plane capacity stopped matching the resource pool"
		return v
	case TriggerMaskingLoss:
		v.Fault = faultRuntime
		v.Reason = "fault-masking runtime lost committed work"
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
		v.Fault = faultPlanner
		v.Stage = obs.StagePlan
		v.Reason = "admission reserved past the deadline"
		return v

	case TriggerDeadlineMiss:
		switch {
		case v.Deadline > 0 && v.ReservedFinish > v.Deadline+eps:
			v.Fault = faultPlanner
			v.Stage = obs.StagePlan
			v.Reason = fmt.Sprintf("reservation finish %.6g already past deadline %.6g at admission",
				v.ReservedFinish, v.Deadline)
		case v.ReservedFinish > 0 && v.ActualFinish > v.ReservedFinish+eps:
			v.Fault = faultRuntime
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
