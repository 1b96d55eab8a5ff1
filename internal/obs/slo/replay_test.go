package slo

import (
	"strings"
	"testing"

	"milan/internal/obs"
)

// missSnapshot builds a deadline-miss snapshot whose run span carries the
// given deadline/reservedFinish/actualFinish.
func missSnapshot(deadline, reservedFinish, actualFinish float64) *Snapshot {
	reserve := obs.SpanRec{Trace: 7, ID: 3, Parent: 1, Name: "fed.commit", Stage: obs.StageReserve,
		Job: 9, Start: 0.2, End: 0.3,
		Attrs: map[string]float64{"finish": reservedFinish}}
	return &Snapshot{
		Kind:  TriggerDeadlineMiss,
		Trace: 7,
		At:    actualFinish,
		Spans: []obs.SpanRec{
			{Trace: 7, ID: 1, Name: "fed.negotiate", Stage: obs.StageArrival, Job: 9, Start: 0, End: 0.3},
			{Trace: 7, ID: 2, Parent: 1, Name: "fed.probe", Stage: obs.StagePlan, Job: 9, Start: 0.1, End: 0.2,
				Attrs: map[string]float64{"finish": reservedFinish}},
			reserve,
			{Trace: 7, ID: 4, Parent: 1, Name: "job.run", Stage: obs.StageRun, Job: 9,
				Start: 0.3, End: actualFinish,
				Attrs: map[string]float64{"deadline": deadline, "reserved_finish": reservedFinish}},
		},
	}
}

func TestReplayLocalizesRuntime(t *testing.T) {
	// Reservation met the deadline; execution overran it.
	s := missSnapshot(10, 9.5, 10.4)
	v := Replay(s)
	if v.Fault != faultRuntime || v.Stage != obs.StageRun {
		t.Fatalf("verdict: %+v", v)
	}
	if v.Deadline != 10 || v.ReservedFinish != 9.5 || v.ActualFinish != 10.4 {
		t.Fatalf("reconstructed numbers wrong: %+v", v)
	}
	if v.Spans != 4 {
		t.Fatalf("spans counted = %d, want 4", v.Spans)
	}
}

func TestReplayLocalizesPlanner(t *testing.T) {
	// Reservation itself was past the deadline: the miss was decided at
	// admission time.
	s := missSnapshot(10, 10.6, 10.6)
	v := Replay(s)
	if v.Fault != faultPlanner || v.Stage != obs.StagePlan {
		t.Fatalf("verdict: %+v", v)
	}
}

func TestReplayOverAdmissionIsPlanner(t *testing.T) {
	s := missSnapshot(10, 10.6, 0)
	s.Kind = TriggerOverAdmission
	v := Replay(s)
	if v.Fault != faultPlanner {
		t.Fatalf("verdict: %+v", v)
	}
}

func TestReplayAggregateKinds(t *testing.T) {
	if v := Replay(&Snapshot{Kind: TriggerCapacityDrift}); v.Fault != faultCapacity {
		t.Fatalf("capacity-drift verdict: %+v", v)
	}
	if v := Replay(&Snapshot{Kind: TriggerManual}); v.Fault != faultUnknown {
		t.Fatalf("manual verdict: %+v", v)
	}
	if v := Replay(nil); v.Fault != faultUnknown {
		t.Fatalf("nil verdict: %+v", v)
	}
}

func TestReplayFallbackAttrs(t *testing.T) {
	// No run span at all (evicted from the ring): deadline/reserved come
	// from the reserve span's attrs; planner still convicted when the
	// reservation was past the deadline.
	s := &Snapshot{
		Kind: TriggerDeadlineMiss, Trace: 2, At: 11,
		Spans: []obs.SpanRec{
			{Trace: 2, ID: 1, Name: "fed.negotiate", Stage: obs.StageArrival, Job: 1, Start: 0, End: 0.3},
			{Trace: 2, ID: 2, Parent: 1, Name: "fed.commit", Stage: obs.StageReserve, Job: 1,
				Start: 0.1, End: 0.2,
				Attrs: map[string]float64{"deadline": 10, "finish": 10.8}},
		},
	}
	v := Replay(s)
	if v.Fault != faultPlanner {
		t.Fatalf("verdict: %+v", v)
	}
	if v.ReservedFinish != 10.8 || v.Deadline != 10 {
		t.Fatalf("fallback attrs not used: %+v", v)
	}
}

func TestReplayUnknownWithoutEvidence(t *testing.T) {
	s := &Snapshot{Kind: TriggerDeadlineMiss, Trace: 99, At: 5}
	v := Replay(s)
	if v.Fault != faultUnknown {
		t.Fatalf("verdict without spans: %+v", v)
	}
}

func TestVerdictRoundTripsThroughJSONL(t *testing.T) {
	// A snapshot written in one process must replay identically after a
	// JSONL round trip — the production debugging workflow.
	s := missSnapshot(10, 9.5, 10.4)
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := Replay(s), Replay(got)
	if v1 != v2 {
		t.Fatalf("replay diverged after round trip:\n%+v\n%+v", v1, v2)
	}
}
