package qos

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"testing"

	"milan/internal/workload"
)

// shedSim drives a deterministic synthetic overload through a Shedder in
// front of a real (oversized) arbitrator: arrivals every `gap` time
// units, classes round-robin, tenants alternating within each class, and
// completions landing exactly at each granted reservation's finish.  The
// inner arbitrator is big enough to admit everything the shedder
// forwards, so the admitted stream is shaped by the shedder alone.  It
// counts the decision stream per class from its own offers and grants and
// from the shedder's Observer.
type shedSim struct {
	t     *testing.T
	sh    *Shedder
	job   workload.FigureJob
	gap   float64
	done  finishHeap
	peak  map[string]float64 // observed in-flight peak per tenant
	alive map[string]float64

	offered      map[int]int        // arrivals per class
	shed         map[int]int        // requests refused by the shedder, per class
	shedBy       map[ShedReason]int // requests refused by the shedder, per reason
	admittedArea map[int]float64    // granted reserved area per class
}

type finishEvent struct {
	at     float64
	id     int
	tenant string
	area   float64
}

type finishHeap []finishEvent

func (h finishHeap) Len() int            { return len(h) }
func (h finishHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h finishHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *finishHeap) Push(x interface{}) { *h = append(*h, x.(finishEvent)) }
func (h *finishHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newShedSim(t *testing.T, cfg ShedConfig, gap float64) *shedSim {
	t.Helper()
	inner, err := NewArbitrator(ArbitratorConfig{Procs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s := &shedSim{
		t:            t,
		job:          workload.FigureJob{X: 4, T: 10, Alpha: 0.5, Laxity: 0.5},
		gap:          gap,
		peak:         make(map[string]float64),
		alive:        make(map[string]float64),
		offered:      make(map[int]int),
		shed:         make(map[int]int),
		shedBy:       make(map[ShedReason]int),
		admittedArea: make(map[int]float64),
	}
	observer := cfg.Observer
	cfg.Observer = func(d ShedDecision) {
		if d.Shed {
			s.shed[d.Key.Class]++
			s.shedBy[d.Reason]++
		}
		if observer != nil {
			observer(d)
		}
	}
	if s.sh, err = NewShedder(inner, cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

// offer releases one arrival at now for (tenant, class) and retires every
// reservation that finished by then, mirroring the campaign loop's
// completion events.
func (s *shedSim) offer(id int, now float64, tenant string, class int) (admitted bool) {
	for s.done.Len() > 0 && s.done[0].at <= now {
		ev := heap.Pop(&s.done).(finishEvent)
		s.sh.JobCompleted(ev.id, ev.at)
		s.alive[ev.tenant] -= ev.area
	}
	s.sh.Observe(now)
	job := s.job.Job(id, now, workload.Tunable)
	job.Tenant, job.Class = tenant, class
	s.offered[class]++
	g, err := s.sh.Negotiate(job)
	if err != nil {
		if !errors.Is(err, ErrRejected) {
			s.t.Fatalf("job %d: %v", id, err)
		}
		return false
	}
	area := g.Placement.Area()
	s.admittedArea[class] += area
	s.alive[tenant] += area
	if s.alive[tenant] > s.peak[tenant] {
		s.peak[tenant] = s.alive[tenant]
	}
	heap.Push(&s.done, finishEvent{at: g.Finish(), id: id, tenant: tenant, area: area})
	return true
}

// Under sustained synthetic overload, the admitted area share per class
// must converge to the configured weights, sheds must hit the lowest
// (highest-index) classes hardest, and no decision may starve a tenant
// past the window.
func TestShedderSharesConvergeToWeights(t *testing.T) {
	weights := []float64{3, 2, 1}
	var decisions []ShedDecision
	cfg := ShedConfig{
		Capacity:            32,
		Horizon:             100,
		SaturationThreshold: 0.3,
		ClassWeights:        weights,
		FairnessBurst:       400,
		StarvationWindow:    300,
		Observer:            func(d ShedDecision) { decisions = append(decisions, d) },
	}
	// Job area 80, lifetime ~30; one arrival every 0.5 units is ~5x the
	// shedder's configured capacity window — saturated throughout.
	sim := newShedSim(t, cfg, 0.5)
	const n = 6000
	tenants := []string{"alba", "brig", "cora", "dane", "elia", "fern"}
	for i := 0; i < n; i++ {
		now := float64(i) * sim.gap
		class := i % 3
		tenant := tenants[(class+2*(i/3))%len(tenants)]
		sim.offer(i, now, tenant, class)
	}

	total := 0.0
	for _, a := range sim.admittedArea {
		total += a
	}
	if total == 0 {
		t.Fatal("nothing admitted")
	}
	sumW := 0.0
	for _, w := range weights {
		sumW += w
	}
	for c, w := range weights {
		share := sim.admittedArea[c] / total
		want := w / sumW
		if math.Abs(share-want) > 0.06 {
			t.Errorf("class %d admitted share %.3f, want %.3f +- 0.06 (admitted area %v)", c, share, want, sim.admittedArea)
		}
	}

	// Shed-lowest-first: the shed fraction must not decrease with class
	// index.
	prev := -1.0
	for c := range weights {
		frac := float64(sim.shed[c]) / float64(sim.offered[c])
		if frac < prev-0.02 {
			t.Errorf("class %d shed fraction %.3f below class %d's %.3f — lowest class not shed first",
				c, frac, c-1, prev)
		}
		prev = frac
	}
	if sim.shedBy[ShedClassFairness] == 0 {
		t.Fatal("overload produced no class-fairness sheds; the test exercised nothing")
	}

	// Starvation bound: class fairness never denies a tenant past the
	// window (quota sheds are exempt by contract, but none occur here).
	for _, d := range decisions {
		if d.Shed && d.Reason == ShedClassFairness && d.DeniedAge > cfg.StarvationWindow+1e-9 {
			t.Fatalf("tenant %s starved %.1f units (window %.1f): %+v",
				d.Key.Tenant, d.DeniedAge, cfg.StarvationWindow, d)
		}
	}
}

// A tenant's in-flight reserved area must never exceed its quota by more
// than the single job that reached it, and other tenants must keep
// admitting while the hog is clamped.
func TestShedderEnforcesTenantQuota(t *testing.T) {
	cfg := ShedConfig{
		Capacity:            32,
		Horizon:             100,
		SaturationThreshold: 0.99, // keep class fairness out of the way
		TenantQuota:         map[string]float64{"hog": 0.15},
	}
	sim := newShedSim(t, cfg, 0.5)
	hogAdmits, otherAdmits := 0, 0
	for i := 0; i < 3000; i++ {
		now := float64(i) * sim.gap
		tenant := "calm"
		if i%2 == 0 {
			tenant = "hog"
		}
		if sim.offer(i, now, tenant, 0) {
			if tenant == "hog" {
				hogAdmits++
			} else {
				otherAdmits++
			}
		}
	}
	limit := 0.15*float64(cfg.Capacity)*100 + sim.job.Area()
	if sim.peak["hog"] > limit+1e-9 {
		t.Fatalf("hog in-flight peak %.1f exceeds quota bound %.1f", sim.peak["hog"], limit)
	}
	if sim.shedBy[shedTenantQuota] == 0 {
		t.Fatal("quota never shed anything; the test exercised nothing")
	}
	if hogAdmits == 0 || otherAdmits == 0 {
		t.Fatalf("admissions hog=%d other=%d — quota must clamp, not blackhole", hogAdmits, otherAdmits)
	}
	if sim.peak["calm"] <= sim.peak["hog"] {
		t.Fatalf("unquota'd tenant peaked at %.1f, below the clamped hog's %.1f",
			sim.peak["calm"], sim.peak["hog"])
	}
}

// Bypass must stop all shedding (the campaign's fault injection) while
// still classifying decisions, and ErrShed must read as a rejection to
// existing call sites.
func TestShedderBypassAndErrShed(t *testing.T) {
	if !errors.Is(ErrShed, ErrRejected) {
		t.Fatal("ErrShed must wrap ErrRejected")
	}
	var wouldShed int
	cfg := ShedConfig{
		Capacity:            32,
		SaturationThreshold: 0.3,
		ClassWeights:        []float64{3, 2, 1},
		FairnessBurst:       400,
		Bypass:              true,
		Observer: func(d ShedDecision) {
			if d.Reason != "" && !d.Shed {
				wouldShed++
			}
		},
	}
	sim := newShedSim(t, cfg, 0.5)
	for i := 0; i < 3000; i++ {
		tenant := fmt.Sprintf("t%d", i%4)
		if !sim.offer(i, float64(i)*sim.gap, tenant, i%3) {
			t.Fatalf("bypassed shedder refused job %d", i)
		}
	}
	if len(sim.shedBy) != 0 {
		t.Fatalf("bypass still shed: %v", sim.shedBy)
	}
	if wouldShed == 0 {
		t.Fatal("bypass classified no would-be sheds; injection would be invisible")
	}
}
