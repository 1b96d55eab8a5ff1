// Package campaign is the adversarial campaign harness: it sweeps a
// randomized scenario matrix — arrival storms with hot-tenant skew,
// broker churn, calypso worker-fault floods and multi-tenant saturation
// overload — against the admission plane junctiond serves, asserting the
// paper's hard invariant (admitted ⇒ deadline met) and the fairness
// invariants of the saturation shedder on every run.  Acked ⇒ durable is
// cmd/crashtest's: one harness per invariant.
//
// Every run is a deterministic function of its seed: the per-run seed is
// derived from the campaign seed plus the scenario and plane names, each
// decision folds into an order-sensitive FNV digest, and re-running with
// the same seed reproduces the identical event sequence, digests and
// verdicts.  Every invariant breach is localized through slo.Replay and
// packaged as a replayable Artifact.
package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/resbroker"
	"milan/internal/sim"
	"milan/internal/workload"
)

// Plane names the admission plane (or runtime) a scenario runs against.
type Plane string

// Planes.
const (
	// planeOneShard is the fed plane, the one arbitrator.
	planeOneShard Plane = "shards=1"
	// planeRuntime marks scenarios that exercise the calypso execution
	// runtime rather than an admission plane.
	planeRuntime Plane = "runtime"
)

// Inject selects deliberate faults for campaign self-tests: each one
// breaks a specific subsystem's contract, and the resulting breach
// artifact must replay to that subsystem's fault verdict.
type Inject struct {
	// OverAdmission reports every admitted job to the auditor with a
	// deadline pulled in front of its reservation finish, so admission
	// appears to have reserved past the deadline (fault=planner).
	OverAdmission bool
	// CompletionDelay delays every completion past its reservation, so
	// the runtime breaks the contract it was granted (fault=runtime).
	CompletionDelay float64
	// ShedderBypass turns the fairness shedder off while leaving the
	// fairness invariant checks armed (fault=shedder).
	ShedderBypass bool
}

// Config parameterizes a campaign.
type Config struct {
	Procs int // plane capacity (default 32)
	Jobs  int // arrivals per run (default 300)
	// Seed is the campaign master seed; every run's seed derives from it
	// (default 1).
	Seed int64
	// Scenarios restricts the matrix to the named scenarios (empty = all).
	Scenarios []string
	// Inject enables deliberate faults (see Inject).
	Inject Inject
}

func (c Config) withDefaults() Config {
	if c.Procs < 1 {
		c.Procs = 32
	}
	if c.Jobs < 1 {
		c.Jobs = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Breach is one violated invariant, with the localized fault and the
// replayable artifact behind it (Artifact may be nil when the flight
// recorder's cooldown already captured an identical breach this run).
type Breach struct {
	Scenario  string
	Plane     Plane
	Invariant string
	Detail    string
	Fault     string
	Artifact  *Artifact
}

func (b Breach) String() string {
	return fmt.Sprintf("%s/%s: %s broken (fault=%s): %s", b.Scenario, b.Plane, b.Invariant, b.Fault, b.Detail)
}

// RunReport summarizes one scenario run on one plane.
type RunReport struct {
	Scenario string
	Plane    Plane
	Seed     int64
	Jobs     int
	Admitted int
	Rejected int // rejected by the arbitrator (capacity)
	Shed     int // refused by the fairness shedder
	// Digest folds every decision (order, verdict, grant shape) into one
	// order-sensitive FNV-1a value: two runs match iff their decision
	// sequences match.
	Digest   uint64
	Breaches []Breach
}

// Report is a full campaign: one RunReport per (scenario, plane) cell.
type Report struct {
	Seed int64
	Runs []RunReport
}

// seedName is the name a plane's run seeds derive from.  The admission
// cell keeps the name it had before the monolith became the one-shard
// plane, so a campaign seed reproduces the streams, digests and breaches it
// always has.
func (p Plane) seedName() string {
	if p == planeOneShard {
		return "monolith"
	}
	return string(p)
}

// deriveSeed maps (campaign seed, scenario, plane) to the run seed, so
// every cell of the matrix sees an independent but reproducible stream.
func deriveSeed(master int64, scenario, plane string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(master))
	h.Write(buf[:])
	h.Write([]byte(scenario))
	h.Write([]byte{0})
	h.Write([]byte(plane))
	s := int64(h.Sum64() >> 1) // keep it positive for rand.NewSource friendliness
	if s == 0 {
		s = 1
	}
	return s
}

// Run executes the campaign matrix and returns the full report.  It only
// errors on configuration mistakes; invariant breaches are reported, not
// returned as errors.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}
	for _, sc := range Matrix() {
		if !selected(cfg.Scenarios, sc.Name) {
			continue
		}
		for _, plane := range sc.Planes {
			rr, err := runOne(cfg, sc, plane)
			if err != nil {
				return nil, fmt.Errorf("campaign: %s/%s: %w", sc.Name, plane, err)
			}
			rep.Runs = append(rep.Runs, rr)
		}
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("campaign: no scenario matches %v", cfg.Scenarios)
	}
	return rep, nil
}

func selected(names []string, name string) bool {
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// tenantAssigner stamps accounting identity onto arrivals;
// workload.TenantCycle and workload.SkewedTenants both satisfy it.
type tenantAssigner interface {
	Assign(id int) (tenant string, class int)
}

// runCtx carries one run's live state for scenario hooks and invariant
// checks.
type runCtx struct {
	cfg   Config
	sc    Scenario
	plane Plane
	rep   *RunReport

	engine *sim.Engine
	tracer *obs.Tracer
	rec    *slo.Recorder
	eng    *slo.Engine

	fed    *fed.Arbitrator
	broker *resbroker.Broker
	shed   *qos.Shedder

	digest hash.Hash64
	now    float64

	shedDecisions []qos.ShedDecision
	classOffered  []int64
	classAdmitted []int64
	classArea     []float64
	tenantAlive   map[string]float64
	tenantPeak    map[string]float64
}

func (rc *runCtx) growClass(class int) {
	for len(rc.classOffered) <= class {
		rc.classOffered = append(rc.classOffered, 0)
		rc.classAdmitted = append(rc.classAdmitted, 0)
		rc.classArea = append(rc.classArea, 0)
	}
}

// breach records one violated invariant and cuts a flight snapshot of the
// given trigger kind for the artifact (unless one is supplied, or the
// recorder's cooldown already captured this kind).
func (rc *runCtx) breach(invariant, detail string, kind slo.TriggerKind, snap *slo.Snapshot) {
	if snap == nil {
		snap = rc.rec.Trigger(kind, 0, rc.now, detail)
	}
	b := Breach{
		Scenario:  rc.sc.Name,
		Plane:     rc.plane,
		Invariant: invariant,
		Detail:    detail,
		// The fault is a pure function of the trigger kind and snapshot,
		// so the verdict recorded here matches what any replay of the
		// artifact concludes.
		Fault: slo.Replay(&slo.Snapshot{Kind: kind}).Fault,
	}
	if snap != nil {
		b.Fault = slo.Replay(snap).Fault
		b.Artifact = &Artifact{
			Scenario:  rc.sc.Name,
			Plane:     string(rc.plane),
			Seed:      rc.rep.Seed,
			Invariant: invariant,
			Detail:    detail,
			Fault:     b.Fault,
			Snapshot:  snap,
		}
	}
	rc.rep.Breaches = append(rc.rep.Breaches, b)
}

// hashDecision folds one admission decision into the run digest.
func (rc *runCtx) hashDecision(id int, verdict byte, job core.Job, g *qos.Grant) {
	w := rc.digest
	hashUint(w, uint64(id))
	w.Write([]byte{verdict})
	w.Write([]byte(job.Tenant))
	hashUint(w, uint64(int64(job.Class)))
	if g == nil {
		return // a refusal folds no grant shape
	}
	hashUint(w, uint64(g.Chain))
	hashUint(w, uint64(g.Shard))
	hashUint(w, math.Float64bits(g.Placement.Start()))
	hashUint(w, math.Float64bits(g.Placement.Finish()))
}

// hashUint folds v into a run digest, little-endian.
func hashUint(w hash.Hash64, v uint64) {
	w.Write(binary.LittleEndian.AppendUint64(nil, v))
}

func runOne(cfg Config, sc Scenario, plane Plane) (RunReport, error) {
	seed := deriveSeed(cfg.Seed, sc.Name, plane.seedName())
	if sc.Run != nil {
		return sc.Run(cfg, sc, seed)
	}

	rr := RunReport{Scenario: sc.Name, Plane: plane, Seed: seed, Jobs: cfg.Jobs}
	rc := &runCtx{
		cfg:         cfg,
		sc:          sc,
		plane:       plane,
		rep:         &rr,
		digest:      fnv.New64a(),
		tenantAlive: make(map[string]float64),
		tenantPeak:  make(map[string]float64),
	}

	engine := &sim.Engine{}
	tracer := obs.NewTracer(8192)
	tracer.SetClock(engine.Now)
	rec := slo.NewRecorder(tracer, nil)
	// One snapshot per trigger kind per 25 clock units: a miss flood
	// yields a handful of replayable artifacts, not 16 copies of the
	// same ring.
	rec.SetCooldown(25)
	eng := slo.New(slo.Options{Recorder: rec})
	rc.engine, rc.tracer, rc.rec, rc.eng = engine, tracer, rec, eng

	if plane != planeOneShard {
		return rr, fmt.Errorf("unknown plane %q", plane)
	}
	fa, err := fed.New(fed.Config{Procs: cfg.Procs})
	if err != nil {
		return rr, err
	}
	rc.fed = fa
	var neg qos.Negotiator = fa

	if sc.Shed != nil {
		shcfg := *sc.Shed
		shcfg.Capacity = cfg.Procs
		shcfg.Bypass = shcfg.Bypass || cfg.Inject.ShedderBypass
		shcfg.Observer = func(d qos.ShedDecision) { rc.shedDecisions = append(rc.shedDecisions, d) }
		shed, err := qos.NewShedder(neg, shcfg)
		if err != nil {
			return rr, err
		}
		rc.shed, neg = shed, shed
	}

	if sc.Churn != nil {
		if err := sc.Churn(rc); err != nil {
			return rr, err
		}
	}

	jobs := sc.Job.Stream(sc.Arrivals(seed), cfg.Jobs, workload.Tunable)
	var assign tenantAssigner
	if sc.Tenants != nil {
		assign = sc.Tenants()
	}

	var lastFinish, lastRelease float64
	engine.Arrive(len(jobs), func(i int) float64 { return jobs[i].Release }, func(id int) {
		now := engine.Now()
		lastRelease = now
		fa.Observe(now)
		rc.shed.Observe(now)
		job := jobs[id]
		if assign != nil {
			job.Tenant, job.Class = assign.Assign(id)
		}
		class := job.Class
		if class < 0 {
			class = 0
		}
		rc.growClass(class)
		rc.classOffered[class]++
		tr := tracer.NewTrace()
		root := tracer.StartAt(tr, 0, "job.admit", obs.StageArrival, id, now)
		job.Trace, job.Span = uint64(tr), uint64(root.ID())

		g, err := qos.NewAgent(job).NegotiateWith(neg)
		if err == nil {
			rr.Admitted++
			chain := job.Chains[g.Chain]
			deadline := chain.Tasks[len(chain.Tasks)-1].Deadline
			reported := deadline
			if cfg.Inject.OverAdmission {
				// The planner-fault injection: audit against a
				// deadline the committed reservation already breaks.
				reported = g.Finish() - 1
			}
			root.SetAttr("chain", float64(g.Chain))
			root.EndAt(now)
			run := tracer.StartAt(tr, root.ID(), "job.run", obs.StageRun, id, g.Placement.Start())
			run.SetAttr("deadline", reported)
			run.SetAttr("reserved_finish", g.Finish())
			eng.JobAdmitted(id, job.Trace, now, reported, g.Finish())
			eng.Tick(now)

			area := g.Placement.Area()
			rc.classAdmitted[class]++
			rc.classArea[class] += area
			rc.tenantAlive[job.Tenant] += area
			if rc.tenantAlive[job.Tenant] > rc.tenantPeak[job.Tenant] {
				rc.tenantPeak[job.Tenant] = rc.tenantAlive[job.Tenant]
			}
			rc.hashDecision(id, 'A', job, g)

			finish := g.Finish() + cfg.Inject.CompletionDelay
			if finish < now {
				finish = now
			}
			if finish > lastFinish {
				lastFinish = finish
			}
			tenant := job.Tenant
			engine.At(finish, "complete", func() {
				// End the run span before the completion lands in the
				// SLO engine, so a triggered snapshot already holds
				// the span that convicts the stage.
				run.EndAt(finish)
				eng.JobCompleted(id, finish)
				rc.shed.JobCompleted(id, finish)
				rc.tenantAlive[tenant] -= area
			})
		} else {
			verdict := byte('R')
			if errors.Is(err, qos.ErrShed) {
				verdict = 'S'
				rr.Shed++
			} else {
				rr.Rejected++
			}
			root.SetErr("rejected")
			root.EndAt(now)
			eng.JobRejected()
			eng.Tick(now)
			rc.hashDecision(id, verdict, job, nil)
		}
	})
	engine.Run()

	// Drain: advance past every reservation so capacity checks see the
	// quiescent plane.
	rc.now = math.Max(lastFinish, lastRelease) + 1
	fa.Observe(rc.now)

	rc.collectSLOBreaches()
	rc.planeChecks()
	if sc.Check != nil {
		sc.Check(rc)
	}
	rr.Digest = rc.digest.Sum64()
	return rr, nil
}

// collectSLOBreaches turns the SLO engine's verdict on the hard invariant
// into breaches, one per flight snapshot the recorder cut for it.
func (rc *runCtx) collectSLOBreaches() {
	rep := rc.eng.Report()
	if rep.Conformant() {
		return
	}
	detail := fmt.Sprintf("deadline misses=%d over-admissions=%d", rep.DeadlineMisses, rep.OverAdmissions)
	found := false
	for _, snap := range rc.rec.Snapshots() {
		if snap.Kind != slo.TriggerDeadlineMiss && snap.Kind != slo.TriggerOverAdmission {
			continue
		}
		found = true
		rc.breach("admitted=>deadline-met", detail, snap.Kind, snap)
	}
	if !found {
		// Violated but never snapshotted (ring churn): still a breach.
		rc.breach("admitted=>deadline-met", detail, slo.TriggerDeadlineMiss, nil)
	}
}

// planeChecks asserts the plane's structural invariants after the drain:
// profile consistency (no over-admission at the scheduler level) and
// capacity conservation against the resource pool.
func (rc *runCtx) planeChecks() {
	if err := rc.fed.CheckInvariants(); err != nil {
		rc.breach("no-over-admission", err.Error(), slo.TriggerOverAdmission, nil)
	}
	want := rc.cfg.Procs
	if rc.broker != nil {
		// The pool churned; after the drain the plane must settle back
		// to exactly the broker's surviving capacity.
		want = rc.broker.TotalProcs()
		if _, err := rc.fed.SetTotalCapacity(want); err != nil {
			rc.breach("capacity-conservation",
				fmt.Sprintf("cannot settle to pool capacity %d: %v", want, err),
				slo.TriggerCapacityDrift, nil)
			return
		}
	}
	if total := rc.fed.Procs(); total != want {
		rc.breach("capacity-conservation",
			fmt.Sprintf("plane holds %d processors, pool holds %d", total, want),
			slo.TriggerCapacityDrift, nil)
	}
}
