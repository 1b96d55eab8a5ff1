package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"milan/internal/calypso"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/resbroker"
	"milan/internal/workload"
)

// Scenario is one cell family of the campaign matrix: an adversarial
// traffic shape plus the planes it runs against and the extra invariants
// it arms.
type Scenario struct {
	Name   string
	Doc    string // one-line description for -list and the docs
	Planes []Plane

	// Job is the figure-8 task-system template every arrival instantiates.
	Job workload.FigureJob
	// Arrivals builds the scenario's inter-arrival process from the run
	// seed.
	Arrivals func(seed int64) workload.Arrivals
	// Tenants builds the accounting-identity assigner (nil = unattributed).
	Tenants func() tenantAssigner

	// Shed, when set, fronts the plane with a quota/weighted-fair shedder
	// (Capacity is overwritten with the campaign's proc count).
	Shed *qos.ShedConfig
	// Check runs extra invariant checks after the drain (fairness, etc.).
	Check func(rc *runCtx)
	// Churn, when set, wires adversarial infrastructure (broker floods)
	// into the run before arrivals start.
	Churn func(rc *runCtx) error

	// Run replaces the standard admission loop entirely (runtime
	// scenarios).
	Run func(cfg Config, sc Scenario, seed int64) (RunReport, error)
}

// campaignJob is the shared task-system template: width 8, period 20,
// alpha 0.5, laxity 0.5 — area 320, so a 32-proc plane sustains one
// arrival per 10 time units and every scenario's overload factor reads
// directly off its arrival mean.
var campaignJob = workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.5}

// Matrix returns the campaign's scenario matrix.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name:   "arrival-storm",
			Doc:    "Poisson bursts with a hot-tenant skew (3 of 4 arrivals bill to one whale)",
			Planes: []Plane{planeOneShard},
			Job:    campaignJob,
			Arrivals: func(seed int64) workload.Arrivals {
				// Busy phases fire arrivals every ~1 unit (10x overload),
				// separated by ~40-unit idle gaps; ~12 arrivals per burst.
				return workload.NewBursty(1, 40, 12, seed)
			},
			Tenants: func() tenantAssigner {
				return &workload.SkewedTenants{
					Hot:     "whale",
					Cold:    []string{"minnow-a", "minnow-b", "minnow-c"},
					HotPer:  3,
					Per:     4,
					Classes: 3,
				}
			},
		},
		{
			Name:   "broker-churn",
			Doc:    "register/deregister floods resize the plane mid-admission",
			Planes: []Plane{planeOneShard},
			Job:    campaignJob,
			Arrivals: func(seed int64) workload.Arrivals {
				return workload.NewPoisson(8, seed)
			},
			Tenants: func() tenantAssigner {
				return &workload.TenantCycle{
					Tenants: []string{"ops", "batch"},
					Classes: 2,
				}
			},
			Churn: brokerChurn,
		},
		{
			Name:   "worker-faults",
			Doc:    "calypso fault floods (crash/transient/straggler) must not lose committed work",
			Planes: []Plane{planeRuntime},
			Job:    campaignJob,
			Run:    workerFaultRun,
		},
		{
			Name:   "saturation-overload",
			Doc:    "3.3x sustained overload against quotas and weighted-fair shedding",
			Planes: []Plane{planeOneShard},
			Job:    campaignJob,
			Arrivals: func(seed int64) workload.Arrivals {
				return workload.NewPoisson(3, seed)
			},
			Tenants: func() tenantAssigner {
				return &workload.TenantCycle{
					Tenants: []string{"acme-a", "acme-b", "acme-c", "acme-d"},
					Classes: 3,
				}
			},
			Shed: &qos.ShedConfig{
				Horizon:             100,
				SaturationThreshold: 0.6,
				ClassWeights:        []float64{3, 2, 1},
				FairnessBurst:       400,
				StarvationWindow:    300,
				TenantQuota:         map[string]float64{"acme-d": 0.15},
			},
			Check: fairnessCheck,
		},
	}
}

// brokerChurn wires a resource broker under the plane and floods it with
// register/withdraw pairs while admissions run.  The base pool mirrors the
// plane's capacity exactly (8 machines of Procs/8), so after every
// transient machine has withdrawn the plane must settle back to the
// configured capacity — any drift is a capacity fault.
func brokerChurn(rc *runCtx) error {
	broker := resbroker.New(nil)
	per := rc.cfg.Procs / 8
	if per < 1 {
		per = 1
	}
	for i := 0; i < 8; i++ {
		if err := broker.Register(resbroker.Resource{
			ID:    fmt.Sprintf("base-%d", i),
			Procs: per,
			Speed: 1,
		}); err != nil {
			return err
		}
	}
	// Attach after the base pool registers: the flood below churns
	// capacity around the base total, never below it.
	if _, err := rc.fed.AttachBroker(broker, 0); err != nil {
		return err
	}
	rc.broker = broker
	for k := 0; k < 15; k++ {
		id := fmt.Sprintf("churn-%d", k)
		at := 20 + 40*float64(k)
		rc.engine.At(at, "broker-register", func() {
			_ = broker.Register(resbroker.Resource{ID: id, Procs: 8, Speed: 1})
		})
		rc.engine.At(at+15, "broker-withdraw", func() {
			_ = broker.Deregister(id)
		})
	}
	return nil
}

// workerFaultRun floods the calypso runtime with injected worker faults
// (permanent crashes, transient losses, stragglers) and asserts the
// eager-scheduling contract: every parallel step's committed results
// survive, bit-exact, no matter which executions die.  The run digest
// covers only the deterministic store contents — wall-clock metrics vary
// between executions, the committed values must not.
func workerFaultRun(cfg Config, sc Scenario, seed int64) (RunReport, error) {
	rr := RunReport{Scenario: sc.Name, Plane: planeRuntime, Seed: seed}
	digest := fnv.New64a()
	const rounds = 6
	const width = 32
	for r := 0; r < rounds; r++ {
		rt, err := calypso.New(calypso.Config{
			Workers: 8,
			Faults: &calypso.FaultPlan{
				CrashProb:     0.08,
				TransientProb: 0.15,
				SlowProb:      0.10,
				SlowDelay:     time.Millisecond,
				MaxCrashes:    6,
				Seed:          seed + int64(r),
			},
		})
		if err != nil {
			return rr, err
		}
		round := r
		stepErr := rt.Parallel(width, func(ctx *calypso.TaskCtx, w, n int) error {
			ctx.Write(fmt.Sprintf("r%d.k%d", round, n), n*n+round)
			return nil
		})
		rr.Jobs += width
		if stepErr != nil {
			maskingLoss(&rr, seed, float64(round),
				fmt.Sprintf("round %d: runtime gave up: %v", round, stepErr))
			continue
		}
		for n := 0; n < width; n++ {
			key := fmt.Sprintf("r%d.k%d", round, n)
			got, ok := calypso.GetAs[int](rt.Store(), key)
			want := n*n + round
			if !ok || got != want {
				maskingLoss(&rr, seed, float64(round),
					fmt.Sprintf("round %d: %s = %d,%t, want %d", round, key, got, ok, want))
				continue
			}
			rr.Admitted++
			var buf [8]byte
			digest.Write([]byte(key))
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(got)))
			digest.Write(buf[:])
		}
	}
	rr.Digest = digest.Sum64()
	return rr, nil
}

// maskingLoss records a lost-committed-work breach with a synthetic
// flight snapshot, so the artifact replays to the runtime fault.
func maskingLoss(rr *RunReport, seed int64, now float64, detail string) {
	snap := &slo.Snapshot{Kind: slo.TriggerMaskingLoss, At: now, Note: detail}
	b := Breach{
		Scenario:  rr.Scenario,
		Plane:     rr.Plane,
		Invariant: "no-lost-committed-work",
		Detail:    detail,
		Fault:     slo.Replay(snap).Fault,
	}
	b.Artifact = &Artifact{
		Scenario:  rr.Scenario,
		Plane:     string(rr.Plane),
		Seed:      seed,
		Invariant: b.Invariant,
		Detail:    detail,
		Fault:     b.Fault,
		Snapshot:  snap,
	}
	rr.Breaches = append(rr.Breaches, b)
}

// fairnessCheck asserts the saturation shedder's contract after the
// drain: admitted service tracks the class weights, shedding lands on the
// lowest classes first, no tenant starves past the window, and no quota'd
// tenant exceeds its in-flight cap.
func fairnessCheck(rc *runCtx) {
	shcfg := rc.sc.Shed
	if shcfg == nil {
		return
	}
	weights := shcfg.ClassWeights
	capArea := float64(rc.cfg.Procs) * shcfg.Horizon

	// Weighted fair shares: the normalized service (admitted area per
	// unit weight) of the best- and worst-served classes must stay within
	// 2x once enough area has moved to swamp the fairness burst.
	totalArea := 0.0
	for _, a := range rc.classArea {
		totalArea += a
	}
	if totalArea > 5*shcfg.FairnessBurst && len(rc.classArea) >= len(weights) {
		minNS, maxNS := math.Inf(1), 0.0
		for c, w := range weights {
			ns := rc.classArea[c] / w
			minNS = math.Min(minNS, ns)
			maxNS = math.Max(maxNS, ns)
		}
		if maxNS > 2*minNS {
			rc.breach("weighted-fair-shares",
				fmt.Sprintf("normalized service spread %.0f..%.0f exceeds 2x (admitted areas %v, weights %v)",
					minNS, maxNS, rc.classArea, weights),
				slo.TriggerFairnessBreach, nil)
		}
	}

	// Shed-lowest-first: among classes with enough offered traffic, the
	// class-fairness shed fraction must not decrease with class index
	// (class 0 is highest priority).
	shedBy := make([]int64, len(rc.classOffered))
	for _, d := range rc.shedDecisions {
		if d.Shed && d.Reason == qos.ShedClassFairness && d.Key.Class < len(shedBy) {
			shedBy[d.Key.Class]++
		}
	}
	prev := -1.0
	for c := range shedBy {
		if rc.classOffered[c] < 30 {
			continue
		}
		frac := float64(shedBy[c]) / float64(rc.classOffered[c])
		if frac < prev-0.08 {
			rc.breach("shed-lowest-class-first",
				fmt.Sprintf("class %d shed fraction %.3f undercuts a higher class's %.3f", c, frac, prev),
				slo.TriggerFairnessBreach, nil)
		}
		if frac > prev {
			prev = frac
		}
	}

	// Bounded starvation: class fairness may defer an under-quota tenant,
	// never starve it past the window.
	for _, d := range rc.shedDecisions {
		if d.Shed && d.Reason == qos.ShedClassFairness && d.DeniedAge > shcfg.StarvationWindow+1e-9 {
			rc.breach("bounded-starvation",
				fmt.Sprintf("tenant %s class %d denied %.1f units (window %.1f)",
					d.Key.Tenant, d.Key.Class, d.DeniedAge, shcfg.StarvationWindow),
				slo.TriggerFairnessBreach, nil)
			break
		}
	}

	// Tenant quota: the observed in-flight peak may overshoot the quota
	// by at most the one job that reached it.
	for tenant, q := range shcfg.TenantQuota {
		limit := q*capArea + rc.sc.Job.Area() + 1e-9
		if peak := rc.tenantPeak[tenant]; peak > limit {
			rc.breach("tenant-quota",
				fmt.Sprintf("tenant %s in-flight peak %.0f exceeds quota bound %.0f", tenant, peak, limit),
				slo.TriggerFairnessBreach, nil)
		}
	}
}
