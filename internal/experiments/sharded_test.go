package experiments

import (
	"strings"
	"testing"
)

// shardedTestConfig is a reduced sweep (fewer jobs) in the paper's regime.
func shardedTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Jobs = 800
	return cfg
}

// TestFig5aShardedComparableToMonolith runs the sharded-vs-one-shard Figure
// 5(a) entry on a reduced sweep and pins the plane's quality and balance:
// the sharded utilization and miss-rate stay close to one shard's, and
// the rebalancer keeps the per-shard utilization spread within the
// documented SpreadBound (read back through the obs gauges).
func TestFig5aShardedComparableToMonolith(t *testing.T) {
	cfg := shardedTestConfig()
	intervals := []float64{15, 30, 50, 70}
	fig, err := Fig5aSharded(cfg, intervals, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != len(intervals) {
		t.Fatalf("points = %d", len(fig.Points))
	}
	for _, pt := range fig.Points {
		if pt.OneShard.Admitted == 0 || pt.Sharded.Admitted == 0 {
			t.Fatalf("interval %v: degenerate run (one shard %d, sharded %d admitted)",
				pt.Interval, pt.OneShard.Admitted, pt.Sharded.Admitted)
		}
		// A shard is half the machine, so the plane cannot beat one
		// shard; it must stay within a modest utilization gap.
		if gap := pt.OneShard.Utilization - pt.Sharded.Utilization; gap > 0.15 {
			t.Errorf("interval %v: utilization gap %v too wide (one shard %v, sharded %v)",
				pt.Interval, gap, pt.OneShard.Utilization, pt.Sharded.Utilization)
		}
		if gap := MissRate(pt.Sharded) - MissRate(pt.OneShard); gap > 0.15 {
			t.Errorf("interval %v: miss-rate gap %v too wide", pt.Interval, gap)
		}
		if pt.Stats.Spread > SpreadBound {
			t.Errorf("interval %v: per-shard utilization spread %v exceeds documented bound %v",
				pt.Interval, pt.Stats.Spread, SpreadBound)
		}
		if pt.Stats.Shards != 2 || pt.Stats.ProbeK != 2 {
			t.Errorf("stats plane shape = %+v", pt.Stats)
		}
	}
	var sb strings.Builder
	if err := WriteSharded(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "shards=2") {
		t.Fatalf("table missing header:\n%s", sb.String())
	}
	t.Logf("\n%s", sb.String())
}
