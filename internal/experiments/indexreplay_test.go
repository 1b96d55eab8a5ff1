package experiments

import (
	"reflect"
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/workload"
)

// TestFig5aReplayIndexOnOff replays the Figure 5(a) arrival-interval sweep
// end to end — all three task systems, the full admission/negotiation loop —
// with the profile index enabled (the default) and disabled, and requires
// the resulting figures to be identical in every field: admissions,
// rejections, utilization, horizon, chain shares, and mean slack.  The
// index is a pure accelerator; it must never change a decision.
func TestFig5aReplayIndexOnOff(t *testing.T) {
	intervals := []float64{10, 25, 55, 85}

	on := testConfig()
	on.Jobs = 400 // keep the 2x sweep affordable in -race runs
	off := on
	off.Opts = &core.Options{ProfileIndex: core.ProfileIndexOff}

	figOn, err := Fig5a(on, intervals)
	if err != nil {
		t.Fatalf("Fig5a indexed: %v", err)
	}
	figOff, err := Fig5a(off, intervals)
	if err != nil {
		t.Fatalf("Fig5a linear: %v", err)
	}

	if len(figOn.Points) != len(intervals) || len(figOff.Points) != len(intervals) {
		t.Fatalf("point counts: indexed %d, linear %d, want %d",
			len(figOn.Points), len(figOff.Points), len(intervals))
	}
	for i := range figOn.Points {
		pOn, pOff := figOn.Points[i], figOff.Points[i]
		if pOn.Param != pOff.Param {
			t.Fatalf("point %d: params diverge: %v vs %v", i, pOn.Param, pOff.Param)
		}
		for _, sys := range workload.Systems {
			rOn, rOff := pOn.Results[sys], pOff.Results[sys]
			if !reflect.DeepEqual(rOn, rOff) {
				t.Errorf("interval %v system %s: results diverge:\nindexed: %+v\nlinear:  %+v",
					pOn.Param, sys, rOn, rOff)
			}
		}
	}
}

// TestRunRecordsIndexWork checks the observability side of the replay: a
// default (indexed) run under an Observer exports non-trivial index gauges,
// and a ProfileIndexOff run exports none.
func TestRunRecordsIndexWork(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 200
	cfg.Obs = obs.New(obs.Config{})
	if _, err := Run(cfg, workload.Tunable); err != nil {
		t.Fatalf("indexed run: %v", err)
	}
	snap := cfg.Obs.Reg.Snapshot()
	if snap.Gauges["profile_index_rebuilds"] == 0 || snap.Gauges["profile_index_descents"] == 0 {
		t.Fatalf("indexed run exported no index work: %+v", snap.Gauges)
	}
	if d := snap.Gauges["profile_index_mean_descent_depth"]; d <= 0 {
		t.Fatalf("mean descent depth = %v, want > 0", d)
	}

	cfg.Obs = obs.New(obs.Config{})
	cfg.Opts = &core.Options{ProfileIndex: core.ProfileIndexOff}
	if _, err := Run(cfg, workload.Tunable); err != nil {
		t.Fatalf("linear run: %v", err)
	}
	snap = cfg.Obs.Reg.Snapshot()
	if v, ok := snap.Gauges["profile_index_descents"]; ok && v != 0 {
		t.Fatalf("linear run exported index descents: %v", v)
	}
}
