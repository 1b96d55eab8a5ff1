package slo

import (
	"strings"
	"testing"
)

// One injected fault per subsystem, each replaying to the component's
// fault verdict — the table the campaign harness's artifacts rely on.
// Every case also round-trips through JSONL first, so the verdict is
// proven a pure function of the persisted artifact, not of in-process
// state.
func TestReplayFaultTable(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
		want string
	}{
		{
			// Planner: admission committed a reservation already past the
			// job's deadline.
			name: "planner/over-admission",
			snap: func() *Snapshot {
				s := missSnapshot(10, 10.6, 0)
				s.Kind = TriggerOverAdmission
				return s
			}(),
			want: faultPlanner,
		},
		{
			// Planner again via the deadline-miss decomposition: the
			// reservation itself broke the deadline at admission time.
			name: "planner/reserved-past-deadline",
			snap: missSnapshot(10, 10.6, 10.6),
			want: faultPlanner,
		},
		{
			// Capacity: the plane's capacity drifted away from the
			// broker's pool (processors lost or duplicated by resizes).
			name: "capacity/capacity-drift",
			snap: &Snapshot{Kind: TriggerCapacityDrift, At: 9,
				Note: "plane holds 31 procs, pool holds 32"},
			want: faultCapacity,
		},
		{
			// Runtime: execution overran the reservation it was granted.
			name: "runtime/reservation-overrun",
			snap: missSnapshot(10, 9.5, 10.4),
			want: faultRuntime,
		},
		{
			// Runtime: the fault-masking executor lost committed work.
			name: "runtime/masking-loss",
			snap: &Snapshot{Kind: TriggerMaskingLoss, At: 2,
				Note: "store missing key k17 after crash flood"},
			want: faultRuntime,
		},
		{
			// Shedder: saturation shedding broke a fairness invariant.
			name: "shedder/fairness-breach",
			snap: &Snapshot{Kind: TriggerFairnessBreach, At: 7,
				Note: "class 2 admitted share 0.33, weighted share 0.17"},
			want: faultShedder,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := tc.snap.WriteJSONL(&sb); err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSnapshot(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			v := Replay(decoded)
			if v.Fault != tc.want {
				t.Fatalf("fault = %q, want %q (verdict %+v)", v.Fault, tc.want, v)
			}
			if direct := Replay(tc.snap); direct.Fault != v.Fault {
				t.Fatalf("round trip changed the verdict: %q vs %q", direct.Fault, v.Fault)
			}
		})
	}
}
