package slo

import (
	"strings"
	"testing"

	"milan/internal/obs"
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
			want: FaultPlanner,
		},
		{
			// Planner again via the deadline-miss decomposition: the
			// reservation itself broke the deadline at admission time.
			name: "planner/reserved-past-deadline",
			snap: missSnapshot(10, 10.6, 10.6),
			want: FaultPlanner,
		},
		{
			// Router: optimistic-commit fallbacks crossed the spike
			// threshold.
			name: "router/commit-race-spike",
			snap: &Snapshot{Kind: TriggerCommitRaceSpike, At: 3},
			want: FaultRouter,
		},
		{
			// Rebalancer: migrations crossed the storm threshold.
			name: "rebalancer/storm",
			snap: &Snapshot{Kind: TriggerRebalanceStorm, At: 4},
			want: FaultRebalancer,
		},
		{
			// Rebalancer: the plane's capacity drifted away from the
			// broker's pool (processors lost or duplicated by resizes).
			name: "rebalancer/capacity-drift",
			snap: &Snapshot{Kind: TriggerCapacityDrift, At: 9,
				Note: "plane holds 31 procs, pool holds 32"},
			want: FaultRebalancer,
		},
		{
			// Runtime: execution overran the reservation it was granted.
			name: "runtime/reservation-overrun",
			snap: missSnapshot(10, 9.5, 10.4),
			want: FaultRuntime,
		},
		{
			// Runtime: the fault-masking executor lost committed work.
			name: "runtime/masking-loss",
			snap: &Snapshot{Kind: TriggerMaskingLoss, At: 2,
				Note: "store missing key k17 after crash flood"},
			want: FaultRuntime,
		},
		{
			// Shedder: saturation shedding broke a fairness invariant.
			name: "shedder/fairness-breach",
			snap: &Snapshot{Kind: TriggerFairnessBreach, At: 7,
				Note: "class 2 admitted share 0.33, weighted share 0.17"},
			want: FaultShedder,
		},
		{
			// Durability: crash recovery lost acknowledged admission state.
			name: "durability/recovery-loss",
			snap: &Snapshot{Kind: TriggerDurabilityLoss, At: 11,
				Note: "grant 42 acked at lsn 97 missing after replay (dropped fsync)"},
			want: FaultDurability,
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

// The fairness-breach verdict must render through WriteReplay too (the
// human side of the campaign artifact workflow).
func TestWriteReplayFairnessBreach(t *testing.T) {
	s := &Snapshot{Kind: TriggerFairnessBreach, At: 7,
		Note: "tenant hog starved 420 units past the window",
		Events: []obs.Event{
			{Time: 6.5, Type: obs.EvRejected, Job: 41, Reason: "shed"},
		}}
	var sb strings.Builder
	if err := WriteReplay(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fault=shedder", "fairness", "starved 420"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output missing %q:\n%s", want, out)
		}
	}
}
