package experiments

import (
	"fmt"
	"io"
	"slices"

	"milan/internal/fed"
	"milan/internal/obs/slo"
	"milan/internal/workload"
)

// SpreadBound is the documented balance guarantee of the sharded admission
// plane under the Figure-4 workload: with best-of-k routing and a
// rebalancing pass per observed arrival, the per-shard utilization spread
// (max minus min shard utilization over the run horizon) stays within this
// bound.  The sharded Fig 5(a) entry asserts it against the obs gauges.
const SpreadBound = 0.30

// ShardedStats carries the plane-level figures a sharded run adds on top
// of RunResult.
type ShardedStats struct {
	Shards     int
	ProbeK     int
	Spread     float64 // max-min per-shard utilization over [0, horizon]
	LoadSpread float64 // final max-min cached load signal
	Migrations int64   // processors moved by the rebalancer
	Races      int64   // optimistic-commit fallbacks
}

// rebalancingPlane adapts a federated plane to the simulation loop's
// admitter surface, running one rebalancer move after every clock
// observation so capacity follows the workload during the run.  When an
// SLO engine audits the run, each observation also feeds it the plane's
// cumulative commit-race and migration counters so commit-race spikes and
// rebalance storms trip the flight recorder.
type rebalancingPlane struct {
	*fed.Arbitrator
	rb  *fed.Rebalancer
	slo *slo.Engine
}

func (p rebalancingPlane) Observe(now float64) {
	p.Arbitrator.Observe(now)
	p.rb.Rebalance(1)
	if p.slo != nil {
		rs := p.RouterStats()
		p.slo.ObserveRouter(now, rs.CommitRaces, rs.Migrations)
	}
}

// RunSharded simulates one task system against a federated admission plane
// with the given shard count and probe fan-out, rebalancing as the clock
// advances.  The one-shard counterpart of the same configuration is
// Run(cfg, sys).
func RunSharded(cfg Config, sys workload.System, shards, probeK int) (RunResult, ShardedStats, error) {
	if err := cfg.Validate(); err != nil {
		return RunResult{}, ShardedStats{}, err
	}
	plane, err := newPlane(cfg, shards, probeK, nil)
	if err != nil {
		return RunResult{}, ShardedStats{}, err
	}
	rb := plane.Rebalancer()
	// A shard shrunk below the workload's widest task can never host it
	// again, so its load signal pins at zero and capacity would drain
	// away monotonically.  The operator knows the task width; floor the
	// shards there.
	if cfg.Job.X > rb.MinShardProcs {
		rb.MinShardProcs = cfg.Job.X
	}
	res, err := runLoop(cfg, sys, rebalancingPlane{plane, rb, cfg.SLO})
	if err != nil {
		return RunResult{}, ShardedStats{}, err
	}
	loads := plane.ShardLoads()
	rs := plane.RouterStats()
	st := ShardedStats{
		Shards:     plane.Shards(),
		ProbeK:     plane.ProbeK(),
		LoadSpread: slices.Max(loads) - slices.Min(loads),
		Migrations: rs.Migrations,
		Races:      rs.CommitRaces,
	}
	if res.Horizon > 0 {
		st.Spread = plane.UtilizationSpread(0, res.Horizon)
	}
	return res, st, nil
}

// ShardedPoint is one arrival-interval value of the sharded-vs-one-shard
// comparison.
type ShardedPoint struct {
	Interval float64
	OneShard RunResult
	Sharded  RunResult
	Stats    ShardedStats
}

// MissRate returns the rejected fraction of a run.
func MissRate(r RunResult) float64 {
	total := r.Admitted + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(total)
}

// ShardedFigure is the sharded-vs-one-shard Figure 5(a) arrival sweep: the
// same tunable workload admitted by the one-shard plane (Run) and by a
// plane of equal total capacity split across shards.
type ShardedFigure struct {
	Shards int
	ProbeK int
	Points []ShardedPoint
}

// Fig5aSharded sweeps the mean arrival interval (Figure 5(a)'s domain),
// comparing one-shard and sharded admission on the tunable task system.
// shards/probeK <= 0 select 2 shards with full fan-out — the smallest
// plane whose shards still fit the x = 16 wide task of the default
// configuration.
func Fig5aSharded(base Config, intervals []float64, shards, probeK int) (ShardedFigure, error) {
	if intervals == nil {
		intervals = DefaultIntervals()
	}
	if shards <= 0 {
		shards = 2
	}
	if probeK <= 0 {
		probeK = shards
	}
	fig := ShardedFigure{Shards: shards, ProbeK: probeK}
	for _, v := range intervals {
		cfg := base
		cfg.MeanInterarrival = v
		one, err := Run(cfg, workload.Tunable)
		if err != nil {
			return ShardedFigure{}, fmt.Errorf("experiments: sharded 5a one shard at interval %v: %w", v, err)
		}
		shr, st, err := RunSharded(cfg, workload.Tunable, shards, probeK)
		if err != nil {
			return ShardedFigure{}, fmt.Errorf("experiments: sharded 5a plane at interval %v: %w", v, err)
		}
		fig.Points = append(fig.Points, ShardedPoint{Interval: v, OneShard: one, Sharded: shr, Stats: st})
	}
	return fig, nil
}

// WriteSharded renders the comparison as a text table.
func WriteSharded(w io.Writer, fig ShardedFigure) error {
	if _, err := fmt.Fprintf(w, "sharded admission plane vs one shard (shards=%d probe=%d, tunable system)\n",
		fig.Shards, fig.ProbeK); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s %10s %10s %10s %10s %8s %8s %6s\n",
		"interval", "one-util", "shard-util", "one-miss", "shard-miss", "spread", "moves", "races"); err != nil {
		return err
	}
	for _, pt := range fig.Points {
		if _, err := fmt.Fprintf(w, "%10.1f %10.4f %10.4f %10.4f %10.4f %8.4f %8d %6d\n",
			pt.Interval,
			pt.OneShard.Utilization, pt.Sharded.Utilization,
			MissRate(pt.OneShard), MissRate(pt.Sharded),
			pt.Stats.Spread, pt.Stats.Migrations, pt.Stats.Races); err != nil {
			return err
		}
	}
	return nil
}
