package qos

import (
	"fmt"
	"sync"

	"milan/internal/core"
)

// Shedder is the admission-fairness layer in front of a negotiator: it
// enforces per-tenant quotas on in-flight reserved capacity and, when the
// plane saturates, weighted-fair shedding across priority classes, so a
// flood of low-priority arrivals from one tenant cannot FIFO-starve
// everyone else out of the arbitrator's queue.
//
// The accounting identity is the utilization ledger's (tenant, class) key
// on core.Job (obs/ledger books under the same pair; the ledger imports
// qos, so the shedder keys off the job directly).  Class 0 is the most
// important; at saturation each class's cumulative admitted area is held
// near its configured weight by stride-style scheduling: an arrival is
// shed when its class's normalized service (served area over weight) has
// run FairnessBurst ahead of the most-starved active class.  Below the
// saturation threshold every class admits freely — fairness only prices
// capacity that is actually scarce.
//
// Guarantees, checkable from the decision stream:
//
//   - a tenant's in-flight reserved area never exceeds its quota (plus
//     at most the job that reached it);
//   - at saturation, cumulative admitted area per class tracks the
//     configured weights within FairnessBurst;
//   - sheds hit the most-over-served (lowest-weight) classes first;
//   - no under-quota tenant is denied by class fairness for longer than
//     StarvationWindow — such a request is forced through to the
//     arbitrator instead (Starved decisions).
type Shedder struct {
	mu    sync.Mutex
	inner Negotiator
	cfg   ShedConfig
	now   float64

	inflight   map[int]jobCharge  // jobID -> charge held until completion
	inflightA  float64            // total in-flight reserved area (kept incrementally so load is independent of map iteration order)
	tenantArea map[string]float64 // in-flight reserved area per tenant
	served     []float64          // cumulative admitted area per class
	lastOffer  []float64          // last arrival time per class
	lastOK     map[string]float64 // last admission (or first sighting) per tenant
}

type jobCharge struct {
	tenant string
	area   float64
}

// ShedKey is the accounting identity a shed decision is keyed by — the
// same (tenant, priority class) pair the utilization ledger books under.
type ShedKey struct {
	Tenant string
	Class  int
}

// ShedReason classifies why a request was (or would have been) shed.
type ShedReason string

// Shed reasons.
const (
	// shedTenantQuota: the tenant's in-flight reserved area had reached
	// its quota.
	shedTenantQuota ShedReason = "tenant-quota"
	// ShedClassFairness: the plane was saturated and the class had run
	// past its weighted fair share.
	ShedClassFairness ShedReason = "class-fairness"
)

// ErrShed is returned when the shedder refuses a job before the
// arbitrator sees it.  It wraps ErrRejected, so call sites that only
// distinguish admit from reject keep working; errors.Is(err, ErrShed)
// separates fairness sheds from capacity rejections.
var ErrShed = fmt.Errorf("%w (shed by admission fairness)", ErrRejected)

// ShedConfig configures a Shedder.
type ShedConfig struct {
	// Capacity is the plane's processor count (required): quotas and the
	// saturation threshold are fractions of Capacity*Horizon
	// processor-time.
	Capacity int
	// Horizon is the accounting window in clock units (default 100, the
	// default headroom horizon).
	Horizon float64
	// SaturationThreshold is the in-flight load fraction at which class
	// fairness engages (default 0.85).  Load is total in-flight reserved
	// area over Capacity*Horizon.
	SaturationThreshold float64
	// ClassWeights gives each priority class's fair share of admitted
	// capacity at saturation; class 0 is the most important.  Classes
	// beyond the slice reuse the last weight; empty weighs every class 1.
	ClassWeights []float64
	// FairnessBurst is how far a class's normalized service (admitted
	// area over weight) may run ahead of the most-starved active class
	// before its arrivals are shed (default Capacity*Horizon/8).
	FairnessBurst float64
	// TenantQuota caps a tenant's in-flight reserved area as a fraction
	// of Capacity*Horizon; tenants not listed, and values outside (0, 1),
	// are unlimited.
	TenantQuota map[string]float64
	// StarvationWindow bounds how long class fairness may deny an
	// under-quota tenant before a request is forced through to the
	// arbitrator (default 4*Horizon).  Quota sheds are never forced.
	StarvationWindow float64
	// Bypass disables shedding while still classifying every decision —
	// the campaign harness's fault-injection knob: the fairness
	// invariants the shedder would have enforced are left to break.
	Bypass bool
	// Observer, if set, receives every decision synchronously.
	Observer func(ShedDecision)
}

// ShedDecision records one admission-fairness decision.
type ShedDecision struct {
	JobID int
	Key   ShedKey
	Now   float64
	// Shed reports whether the request was refused.  A non-empty Reason
	// with Shed false means the shed was bypassed (Bypass injection) or
	// forced through (Starved).
	Shed   bool
	Reason ShedReason
	// DeniedAge is how long the tenant had gone without an admission
	// when the decision was taken.
	DeniedAge float64
	// Load is the in-flight reserved area over Capacity*Horizon at
	// decision time.
	Load float64
	// Starved marks an admission forced through class fairness by the
	// starvation guard.
	Starved bool
}

func (c ShedConfig) withDefaults() ShedConfig {
	if c.Horizon <= 0 {
		c.Horizon = 100
	}
	if c.SaturationThreshold <= 0 {
		c.SaturationThreshold = 0.85
	}
	if c.FairnessBurst <= 0 {
		c.FairnessBurst = float64(c.Capacity) * c.Horizon / 8
	}
	if c.StarvationWindow <= 0 {
		c.StarvationWindow = 4 * c.Horizon
	}
	return c
}

// NewShedder wraps inner with quota and weighted-fair admission control.
func NewShedder(inner Negotiator, cfg ShedConfig) (*Shedder, error) {
	if inner == nil {
		return nil, fmt.Errorf("qos: shedder needs an inner negotiator")
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("qos: shedder capacity = %d", cfg.Capacity)
	}
	for i, w := range cfg.ClassWeights {
		if w <= 0 {
			return nil, fmt.Errorf("qos: class %d weight = %v", i, w)
		}
	}
	return &Shedder{
		inner:      inner,
		cfg:        cfg.withDefaults(),
		inflight:   make(map[int]jobCharge),
		tenantArea: make(map[string]float64),
		lastOK:     make(map[string]float64),
	}, nil
}

// weight returns class c's fair-share weight.
func (s *Shedder) weight(c int) float64 {
	w := s.cfg.ClassWeights
	if len(w) == 0 {
		return 1
	}
	if c >= len(w) {
		return w[len(w)-1]
	}
	if c < 0 {
		c = 0
	}
	return w[c]
}

// capArea is the capacity window quotas and load are fractions of.
func (s *Shedder) capArea() float64 { return float64(s.cfg.Capacity) * s.cfg.Horizon }

// quota returns the tenant's in-flight area cap, ok=false when unlimited.
func (s *Shedder) quota(tenant string) (float64, bool) {
	q := s.cfg.TenantQuota[tenant]
	if q <= 0 || q >= 1 {
		return 0, false
	}
	return q * s.capArea(), true
}

// estArea is the cheapest execution path's reserved area — the most
// modest request the arbitrator could grant.
func estArea(job core.Job) float64 {
	best := 0.0
	for i, ch := range job.Chains {
		a := 0.0
		for _, t := range ch.Tasks {
			a += float64(t.Procs) * t.Duration
		}
		if i == 0 || a < best {
			best = a
		}
	}
	return best
}

func (s *Shedder) loadLocked() float64 { return s.inflightA / s.capArea() }

func (s *Shedder) growClass(c int) {
	for len(s.served) <= c {
		s.served = append(s.served, 0)
		s.lastOffer = append(s.lastOffer, 0)
	}
}

// classAheadLocked reports whether class c's normalized service has run
// more than FairnessBurst ahead of the most-starved class that is still
// actively arriving (stale classes don't hold the floor down forever).
func (s *Shedder) classAheadLocked(c int, now float64) bool {
	ns := s.served[c] / s.weight(c)
	min, seen := 0.0, false
	for i := range s.served {
		if now-s.lastOffer[i] > s.cfg.Horizon {
			continue
		}
		v := s.served[i] / s.weight(i)
		if !seen || v < min {
			min, seen = v, true
		}
	}
	if !seen {
		return false
	}
	return ns-min > s.cfg.FairnessBurst
}

// Observe advances the shedder's clock (the simulation clock, or
// wall-clock progress in a live deployment).
func (s *Shedder) Observe(now float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if now > s.now {
		s.now = now
	}
	s.mu.Unlock()
}

// JobCompleted releases the job's in-flight charge; call it when the
// granted reservation finishes.
func (s *Shedder) JobCompleted(jobID int, now float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if now > s.now {
		s.now = now
	}
	if c, ok := s.inflight[jobID]; ok {
		delete(s.inflight, jobID)
		if s.inflightA -= c.area; s.inflightA < 0 {
			s.inflightA = 0
		}
		if a := s.tenantArea[c.tenant] - c.area; a > 0 {
			s.tenantArea[c.tenant] = a
		} else {
			delete(s.tenantArea, c.tenant)
		}
	}
	s.mu.Unlock()
}

// Negotiate applies quota and fairness policy, then forwards surviving
// requests to the inner negotiator.
func (s *Shedder) Negotiate(job core.Job) (*Grant, error) {
	s.mu.Lock()
	if job.Release > s.now {
		s.now = job.Release
	}
	now := s.now
	key := ShedKey{Tenant: job.Tenant, Class: job.Class}
	class := job.Class
	if class < 0 {
		class = 0
	}
	s.growClass(class)
	s.lastOffer[class] = now
	if _, ok := s.lastOK[job.Tenant]; !ok {
		s.lastOK[job.Tenant] = now
	}

	d := ShedDecision{
		JobID:     job.ID,
		Key:       key,
		Now:       now,
		Load:      s.loadLocked(),
		DeniedAge: now - s.lastOK[job.Tenant],
	}
	overQuota := false
	if limit, ok := s.quota(job.Tenant); ok && s.tenantArea[job.Tenant]+estArea(job) > limit+core.Eps {
		d.Reason, overQuota = shedTenantQuota, true
	} else if d.Load >= s.cfg.SaturationThreshold && s.classAheadLocked(class, now) {
		d.Reason = ShedClassFairness
	}
	d.Shed = d.Reason != ""
	if d.Shed && d.Reason == ShedClassFairness && !overQuota && d.DeniedAge > s.cfg.StarvationWindow {
		// The starvation bound: an under-quota tenant denied past the
		// window goes through to the arbitrator regardless of class.
		d.Shed, d.Starved = false, true
	}
	if s.cfg.Bypass {
		d.Shed = false
	}
	if d.Shed {
		s.mu.Unlock()
		s.observe(d)
		return nil, ErrShed
	}
	s.mu.Unlock()

	g, err := s.inner.Negotiate(job)

	s.mu.Lock()
	if err == nil {
		area := g.Placement.Area()
		s.inflight[job.ID] = jobCharge{tenant: job.Tenant, area: area}
		s.inflightA += area
		s.tenantArea[job.Tenant] += area
		s.growClass(class)
		s.served[class] += area
		s.lastOK[job.Tenant] = now
	}
	s.mu.Unlock()
	s.observe(d)
	return g, err
}

func (s *Shedder) observe(d ShedDecision) {
	if s.cfg.Observer != nil {
		s.cfg.Observer(d)
	}
}
