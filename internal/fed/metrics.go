package fed

import (
	"fmt"
	"slices"

	"milan/internal/obs"
)

// Metrics is the admission plane's view in an obs.Registry, under the fed_
// namespace: the router counters (probes, optimistic-concurrency races,
// non-best commits, migrations), the plane-wide admitted and rejected
// counts, per-shard gauges (processor count, cached load signal) and their
// spreads.  The plane does not know it exists: Publish reads the plane's
// accessors when a reader wants the instruments current.
type Metrics struct {
	Probes         *obs.Counter // planning probes issued by the router
	Admitted       *obs.Counter // reservations committed across the plane
	Rejected       *obs.Counter // rejections counted across the plane
	CommitRaces    *obs.Counter // commits that found a stale shard version
	NonBestCommits *obs.Counter // grants that fell back past the best probe
	Migrations     *obs.Counter // processors moved by the rebalancer

	LoadSpread *obs.Gauge // max-min cached shard load
	ProcSpread *obs.Gauge // max-min shard processor count

	reg *obs.Registry
}

// NewMetrics resolves the plane's instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Probes:         reg.Counter("fed_probes"),
		Admitted:       reg.Counter("fed_admitted"),
		Rejected:       reg.Counter("fed_rejected"),
		CommitRaces:    reg.Counter("fed_commit_races"),
		NonBestCommits: reg.Counter("fed_nonbest_commits"),
		Migrations:     reg.Counter("fed_migrations"),
		LoadSpread:     reg.Gauge("fed_load_spread"),
		ProcSpread:     reg.Gauge("fed_proc_spread"),
		reg:            reg,
	}
}

// Publish brings the instruments up to the plane as it stands.  Call it
// before reading or exporting the registry; the plane's counters only
// grow, so successive calls keep every counter monotone.
func (m *Metrics) Publish(a *Arbitrator) {
	set := func(c *obs.Counter, v int64) { c.Add(v - c.Value()) }
	rs, st := a.RouterStats(), a.Stats()
	set(m.Probes, rs.Probes)
	set(m.CommitRaces, rs.CommitRaces)
	set(m.NonBestCommits, rs.NonBestCommits)
	set(m.Migrations, rs.Migrations)
	set(m.Admitted, int64(st.Admitted))
	set(m.Rejected, int64(st.Rejected))

	loads, procs := a.ShardLoads(), a.ShardProcs()
	for i := range loads {
		m.reg.Gauge(fmt.Sprintf("fed_shard_%d_procs", i)).Set(float64(procs[i]))
		m.reg.Gauge(fmt.Sprintf("fed_shard_%d_load", i)).Set(loads[i])
	}
	m.LoadSpread.Set(slices.Max(loads) - slices.Min(loads))
	m.ProcSpread.Set(float64(slices.Max(procs) - slices.Min(procs)))
}
