// Package latency is the admission latency anatomy plane: it times every
// admission through its phases (route → probe → plan → reserve → journal
// → ack) with cheap monotonic timers that work even when span tracing is
// sampled out, records per-phase and end-to-end log-linear histograms
// into the mergeable obs.Registry, and captures tail exemplars — the
// trace IDs and phase waterfalls of the slowest requests per window —
// into a bounded ring.
//
// The phase timer itself (Rec) lives in the dependency-free subpackage
// internal/obs/latency/phase so the admission stack (qos, fed, durable)
// can mark phases without importing the registry.
//
// The plane follows the codebase's zero-cost observability contract: a
// nil *Plane produces inert Recs whose methods are no-ops, so an
// uninstrumented admission path pays nothing.  With the plane attached,
// the hot path is lock-free: histogram observes are atomic, and the
// exemplar ring is guarded by an atomic slowness threshold so only
// genuine tail requests take its mutex.
package latency

import (
	"sync/atomic"
	"time"

	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
)

// NumPhases is the number of phases (array sizing).
const NumPhases = phase.Num

// PhaseNames returns the phase names in waterfall order.
func PhaseNames() [NumPhases]string { return phase.Names() }

// Target is the end-to-end admission-latency objective: the plane counts
// the admissions that take longer (TargetCount), and the SLO engine judges
// that count as its admit-latency objective.
const Target = 5 * time.Millisecond

// Plane owns the admission latency instruments.  A nil *Plane is valid
// and free: Start returns an inert Rec.
type Plane struct {
	e2e    *obs.Hist
	phases [NumPhases]*obs.Hist

	// Envelope comparison state: budgets are atomic so the sentinel can
	// be armed/retuned at runtime; total/over are cumulative counters the
	// slo engine diffs into its burn windows.  Index NumPhases is the
	// end-to-end envelope.
	budget [NumPhases + 1]atomic.Int64
	total  [NumPhases + 1]atomic.Int64
	over   [NumPhases + 1]atomic.Int64
	// slow counts the admissions over Target.
	slow atomic.Int64

	ex exemplarRing
}

// New builds a latency plane and registers its histograms in reg.
func New(reg *obs.Registry) *Plane {
	p := &Plane{}
	names := phase.Names()
	p.e2e = reg.Histogram("latency_admit_ns")
	for i := 0; i < NumPhases; i++ {
		p.phases[i] = reg.Histogram("latency_phase_" + names[i] + "_ns")
	}
	p.ex.init(exemplarWindow)
	return p
}

// SetEnvelope arms the regression sentinel with the committed baseline
// envelope it compares against, or disarms it with the zero value (a new
// plane starts disarmed).
func (p *Plane) SetEnvelope(env Envelope) {
	if p == nil {
		return
	}
	for i := 0; i < NumPhases; i++ {
		p.budget[i].Store(env.Phase[i])
	}
	p.budget[NumPhases].Store(env.E2E)
}

// envelope returns the currently armed envelope.
func (p *Plane) envelope() Envelope {
	var env Envelope
	if p == nil {
		return env
	}
	for i := 0; i < NumPhases; i++ {
		env.Phase[i] = p.budget[i].Load()
	}
	env.E2E = p.budget[NumPhases].Load()
	return env
}

// PhaseCount is one phase's cumulative envelope accounting: how many
// admissions were timed and how many exceeded the phase budget.  The SLO
// engine diffs consecutive reads into burn windows.
type PhaseCount struct {
	Name  string
	Total int64
	Over  int64
}

// RegressionCounts returns cumulative per-phase plus end-to-end ("e2e")
// envelope counters.  Phases with no armed budget are omitted.  Nil
// plane: nil.
//
// Each count reads Over before Total: Done adds to Total first, so a
// count never holds an over-budget admission without its total.
func (p *Plane) RegressionCounts() []PhaseCount {
	if p == nil {
		return nil
	}
	names := phase.Names()
	var out []PhaseCount // nil, and no allocation, while nothing is armed
	for i := 0; i < NumPhases; i++ {
		if p.budget[i].Load() <= 0 {
			continue
		}
		out = append(out, count(names[i], &p.total[i], &p.over[i]))
	}
	if p.budget[NumPhases].Load() > 0 {
		out = append(out, count("e2e", &p.total[NumPhases], &p.over[NumPhases]))
	}
	return out
}

// TargetCount returns the cumulative end-to-end count against Target:
// every admission timed, and those over it.
func (p *Plane) TargetCount() PhaseCount {
	return count("target", &p.total[NumPhases], &p.slow)
}

// count reads over, then total (see RegressionCounts).
func count(name string, total, over *atomic.Int64) PhaseCount {
	o := over.Load()
	return PhaseCount{Name: name, Total: total.Load(), Over: o}
}

// Admissions returns the end-to-end histogram's snapshot
// (latency_admit_ns).
func (p *Plane) Admissions() obs.HistSnapshot { return p.e2e.Snapshot() }

// Done consumes a finished record (phase.Sink): histograms and envelope
// counters update, and the request is offered to the exemplar ring if it
// is slow enough.
func (p *Plane) Done(trace uint64, job int64, shard int32, total int64, durs [NumPhases]int64, endMono int64) {
	p.e2e.Observe(time.Duration(total))
	p.total[NumPhases].Add(1)
	if b := p.budget[NumPhases].Load(); b > 0 && total > b {
		p.over[NumPhases].Add(1)
	}
	if total > int64(Target) {
		p.slow.Add(1)
	}
	for i := 0; i < NumPhases; i++ {
		d := durs[i]
		if d > 0 {
			p.phases[i].Observe(time.Duration(d))
		}
		p.total[i].Add(1)
		if b := p.budget[i].Load(); b > 0 && d > b {
			p.over[i].Add(1)
		}
	}
	p.ex.offer(Exemplar{
		Trace: trace,
		Job:   job,
		Shard: shard,
		Total: total,
		Durs:  durs,
		At:    phase.WallAt(endMono),
	}, endMono)
}

// topK returns the slowest exemplars across the current and previous
// windows, slowest first.
func (p *Plane) topK() []Exemplar {
	if p == nil {
		return nil
	}
	return p.ex.topK()
}
