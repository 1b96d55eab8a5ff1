// Package qos holds the negotiation model of the MILAN resource management
// architecture (Section 3 of the paper): per-application QoS agents, which
// describe an application's real-time constraints, resource requirements
// and tunability as a set of alternative execution paths; the grant, the
// rejection and the Decision an arbitrator commits; the saturation shedder;
// and the renegotiating DynamicArbitrator for capacity that changes.
//
// The negotiation model is the static one evaluated in the paper: the agent
// communicates all possible execution paths up front and receives either a
// grant (chosen path plus a start time and processor count for every task)
// or a rejection.
//
// The system-wide arbitrator every result comes from is the admission plane
// in internal/fed (junctiond serves it at one shard).  Arbitrator here is
// the reference: one scheduler behind one lock, which the differential
// tests and the benchmark's oracle hold the plane to, decision for decision.
package qos

import (
	"errors"
	"fmt"
	"sync"

	"milan/internal/core"
	"milan/internal/obs/latency/phase"
)

// ErrRejected is returned by Negotiate when admission control fails: no
// execution path of the application can be scheduled to meet its deadlines.
var ErrRejected = errors.New("qos: request rejected by admission control")

// Grant is the arbitrator's answer to a successful negotiation: the chosen
// execution path and the reservation for each of its tasks.  The agent uses
// Chain to configure the application (e.g. set its control parameters) and
// the placement to know when each parallel step may run.
type Grant struct {
	JobID     int
	Chain     int     // index of the chosen execution path
	Quality   float64 // output quality of the chosen path
	Placement core.Placement

	// Trace echoes the request's trace identity (core.Job.Trace) so the
	// caller can correlate the grant — and the reservation's eventual
	// completion — with the admission spans.  Zero means "untraced".
	Trace uint64

	// Shard identifies which admission shard committed the reservation
	// (internal/fed); a one-shard plane and the reference arbitrator
	// always report shard 0.  Completion events
	// must be delivered back to the same shard's accounting (the
	// utilization ledger keys realized area by shard).
	Shard int
}

// Finish returns the completion time of the granted reservation.
func (g *Grant) Finish() float64 { return g.Placement.Finish() }

// GrantBox is a grant and the storage of its placement's tasks: a promise is
// one object, and read-only once returned.  Whoever makes a grant — an
// arbitrator, a shard, a client decoding one off the wire — builds it in a
// GrantBox, the placement's tasks in the box's own array, and hands out
// &box.Grant; whoever is handed a grant (the caller, an Observer,
// the durable plane's live set, a checkpoint's fold, a connection encoding
// the reply) may keep it and its Placement.Tasks for as long as it likes and
// read them from any goroutine, and may write neither: a holder that wants
// a different grant copies the tasks first.
type GrantBox struct {
	Grant Grant
	// Tasks is where Grant.Placement.Tasks lives when the chosen path has
	// no more tasks than this — every chain of the paper's workloads; a
	// longer one overflows to a slice of its own.
	Tasks [4]core.TaskPlacement
}

// Negotiator is anything an agent can negotiate with: the in-process
// arbitrator or a qosnet client speaking to a remote one.
type Negotiator interface {
	Negotiate(job core.Job) (*Grant, error)
}

// TimedNegotiator is a Negotiator that can attribute its admission time
// to latency phases (internal/obs/latency/phase).  rec may be nil (or inert):
// implementations call its nil-safe Mark methods unconditionally, so the
// untimed path costs nothing beyond a nil check.
type TimedNegotiator interface {
	Negotiator
	NegotiateTimed(job core.Job, rec *phase.Rec) (*Grant, error)
}

// DecisionKind names what a Decision committed.
type DecisionKind uint8

// The four mutations of an admission plane, kind for kind what the durable
// journal records: a reservation committed, a rejection counted, the clock
// folded forward, a shard's processor count changed.  The fed plane emits
// all four, each under the deciding shard's lock, at every shard count; the
// reference and the dynamic arbitrator emit the first two.
const (
	KindAdmitted DecisionKind = iota
	KindRejected
	KindClock
	KindResize
)

// Decision is the one typed event of the admission plane, handed to an
// Observer at the point the mutation it describes is committed.
type Decision struct {
	Kind  DecisionKind
	Job   core.Job // the negotiating job (KindAdmitted, KindRejected)
	Grant *Grant   // the committed reservation (KindAdmitted)
	Now   float64  // the deciding plane's clock; for KindClock, its new value
	Shard int      // the deciding shard (always 0 at one shard)
	Procs int      // the shard's new processor count (KindResize)
}

// Arbitrator is the reference QoS arbitrator: it owns the machine's
// capacity profile and serializes admission decisions.  It is safe for
// concurrent use (agents negotiate from many goroutines; decisions are
// ordered by lock acquisition).  Production code builds the fed plane; only
// tests and the benchmark's oracle build this one.
type Arbitrator struct {
	mu       sync.Mutex
	sched    *core.Scheduler
	now      float64
	observer func(Decision)
	// spare is the box the next negotiation plans into.  A refusal leaves
	// it unfilled and in place — it was never handed out — so only a grant
	// costs an allocation.
	spare *GrantBox
}

// ArbitratorConfig configures a new arbitrator.
type ArbitratorConfig struct {
	Procs   int           // machine size (required)
	Origin  float64       // schedule start time
	Options *core.Options // scheduler policy; nil means the paper's defaults
	// Observer, if set, is called synchronously with every decision.
	Observer func(Decision)
}

// NewArbitrator returns an arbitrator managing cfg.Procs processors.
func NewArbitrator(cfg ArbitratorConfig) (*Arbitrator, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("qos: arbitrator needs at least 1 processor, got %d", cfg.Procs)
	}
	return &Arbitrator{
		sched:    core.NewScheduler(cfg.Procs, cfg.Origin, cfg.Options),
		now:      cfg.Origin,
		observer: cfg.Observer,
	}, nil
}

// Negotiate runs admission control for the job: it evaluates every execution
// path, reserves the best schedulable one (per the greedy heuristic's
// tie-breaking rules) and returns the grant, or ErrRejected.
func (a *Arbitrator) Negotiate(job core.Job) (*Grant, error) {
	return a.NegotiateTimed(job, nil)
}

// NegotiateTimed is Negotiate with latency-phase attribution: lock
// acquisition counts as route (decision serialization), the scheduler's
// admission descent as plan, and decision bookkeeping as reserve.  rec
// may be nil.
func (a *Arbitrator) NegotiateTimed(job core.Job, rec *phase.Rec) (*Grant, error) {
	a.mu.Lock()
	rec.Mark(phase.Route)
	defer a.mu.Unlock()

	if a.spare == nil {
		a.spare = new(GrantBox)
	}
	g := &a.spare.Grant
	err := a.sched.AdmitInto(job, &g.Placement, a.spare.Tasks[:0])
	rec.Mark(phase.Plan)
	if err != nil {
		if errors.Is(err, core.ErrRejected) {
			a.record(Decision{Kind: KindRejected, Job: job, Now: a.now})
			rec.Mark(phase.Reserve)
			return nil, ErrRejected
		}
		return nil, err
	}
	a.spare = nil
	g.JobID, g.Chain, g.Quality, g.Trace = job.ID, g.Placement.Chain, job.Chains[g.Placement.Chain].Quality, job.Trace
	a.record(Decision{Kind: KindAdmitted, Job: job, Grant: g, Now: a.now})
	rec.Mark(phase.Reserve)
	return g, nil
}

// NegotiateDAG runs admission control for a DAG job (an application whose
// execution paths are precedence graphs rather than chains).  DAG
// negotiations update scheduler statistics but are no decision: the
// observer does not see them.
func (a *Arbitrator) NegotiateDAG(job core.DAGJob) (*Grant, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pl, err := a.sched.AdmitDAG(job)
	if err != nil {
		if errors.Is(err, core.ErrRejected) {
			return nil, ErrRejected
		}
		return nil, err
	}
	return &Grant{
		JobID:     job.ID,
		Chain:     pl.Chain,
		Quality:   job.Alts[pl.Chain].Quality,
		Placement: *pl,
	}, nil
}

// Observe informs the arbitrator that time has advanced (the simulation
// clock, or wall-clock progress in a live deployment), letting it compact
// its bookkeeping.
func (a *Arbitrator) Observe(now float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if now > a.now {
		a.now = now
		a.sched.Observe(now)
	}
}

// Utilization returns reserved capacity as a fraction over [origin, horizon].
func (a *Arbitrator) Utilization(origin, horizon float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.Utilization(origin, horizon)
}

// BusyUpTo returns total reserved processor-time up to t.
func (a *Arbitrator) BusyUpTo(t float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.BusyUpTo(t)
}

// Stats returns scheduler counters (admitted, rejected, chain choices).
func (a *Arbitrator) Stats() core.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.Stats()
}

// IndexStats returns the scheduler's profile-index work counters (zero
// value when the index is disabled via Options.ProfileIndex).
func (a *Arbitrator) IndexStats() core.IndexStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.IndexStats()
}

// WhatIf replays the job on a fork of the arbitrator's schedule under a
// counterfactual delta (extra processors, extra deadline, width cap,
// single chain), answering "what would it have taken to admit this job?"
// without mutating any live state.  The arbitrator's lock is held only
// for the fork; the replanning runs outside the critical section, so
// concurrent negotiations are not stalled by operator probes.
func (a *Arbitrator) WhatIf(job core.Job, d core.WhatIfDelta) (*core.Placement, bool) {
	a.mu.Lock()
	f := a.sched.Fork()
	a.mu.Unlock()
	return core.WhatIfOn(f, job, d)
}

// record hands a decision to the observer, under the arbitrator's lock.
func (a *Arbitrator) record(d Decision) {
	if a.observer != nil {
		a.observer(d)
	}
}

// Agent is the application-side QoS agent.  It carries the application's
// task system (all execution paths with resource requirements, deadlines
// and qualities — in the full system this is generated from the tunability
// language by the preprocessor) and a Configure callback through which the
// granted path's control-parameter assignment is pushed into the
// application.
type Agent struct {
	Job core.Job
	// Configure, if set, is invoked once with the grant so the application
	// can set its control parameters before execution (Section 3.2: "the
	// QoS agent then configures the application to execute along that
	// path").
	Configure func(*Grant)

	grant *Grant
}

// NewAgent returns an agent for the given application task system.
func NewAgent(job core.Job) *Agent { return &Agent{Job: job} }

// NegotiateWith submits the agent's task system to the negotiator.  On
// success the grant is retained and the Configure callback runs.
func (ag *Agent) NegotiateWith(n Negotiator) (*Grant, error) {
	if err := ag.Job.Validate(); err != nil {
		return nil, fmt.Errorf("qos: agent job invalid: %w", err)
	}
	g, err := n.Negotiate(ag.Job)
	if err != nil {
		return nil, err
	}
	ag.grant = g
	if ag.Configure != nil {
		ag.Configure(g)
	}
	return g, nil
}

// Grant returns the grant from the last successful negotiation, or nil.
func (ag *Agent) Grant() *Grant { return ag.grant }

// ChosenChain returns the granted execution path, or an error before a
// successful negotiation.
func (ag *Agent) ChosenChain() (core.Chain, error) {
	if ag.grant == nil {
		return core.Chain{}, errors.New("qos: agent has no grant")
	}
	return ag.Job.Chains[ag.grant.Chain], nil
}

// DAGAgent is the QoS agent for applications whose execution paths are
// precedence graphs (task_par programs): the DAG counterpart of Agent.
type DAGAgent struct {
	Job core.DAGJob
	// Configure, if set, runs once with the grant so the application can
	// set its control parameters before execution.
	Configure func(*Grant)

	grant *Grant
}

// DAGNegotiator is anything a DAG agent can negotiate with: the in-process
// arbitrator or a qosnet client.
type DAGNegotiator interface {
	NegotiateDAG(job core.DAGJob) (*Grant, error)
}

// NewDAGAgent returns an agent for a DAG task system.
func NewDAGAgent(job core.DAGJob) *DAGAgent { return &DAGAgent{Job: job} }

// NegotiateWith submits the DAG task system to the negotiator.
func (ag *DAGAgent) NegotiateWith(n DAGNegotiator) (*Grant, error) {
	if err := ag.Job.Validate(); err != nil {
		return nil, fmt.Errorf("qos: dag agent job invalid: %w", err)
	}
	g, err := n.NegotiateDAG(ag.Job)
	if err != nil {
		return nil, err
	}
	ag.grant = g
	if ag.Configure != nil {
		ag.Configure(g)
	}
	return g, nil
}

// Grant returns the grant from the last successful negotiation, or nil.
func (ag *DAGAgent) Grant() *Grant { return ag.grant }
