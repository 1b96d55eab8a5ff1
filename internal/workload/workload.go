// Package workload generates the synthetic task system of Section 5.3: a
// parameterizable tunable job (the paper's Figure 4) released by a Poisson
// arrival process, plus generic random job generators for stress tests.
//
// The parameterizable job consists of two chains of two tasks each.  Task A
// requires x processors for t time units; task B requires x*alpha processors
// for t/alpha time units (the same total work, a different shape).  Shape 1
// runs A then B; shape 2 runs B then A; the tunable job offers both.  For a
// job released at r with slack ratio `laxity`:
//
//	d1 = r + max(t, t/alpha)/(1-laxity)        (deadline of the first task)
//	d2 = r + (t + t/alpha)/(1-laxity)          (deadline of the second task)
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"milan/internal/core"
)

// System selects which task system a generated job belongs to.
type System int

const (
	// Tunable jobs carry both chains (shape 1 and shape 2).
	Tunable System = iota
	// Shape1 jobs run task A (x procs for t) before task B.
	Shape1
	// Shape2 jobs run task B (x*alpha procs for t/alpha) before task A.
	Shape2
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case Tunable:
		return "tunable"
	case Shape1:
		return "shape1"
	case Shape2:
		return "shape2"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Systems lists all three task systems in presentation order.
var Systems = []System{Tunable, Shape1, Shape2}

// FigureJob holds the parameters of the Figure-4 job.
type FigureJob struct {
	X      int     // processors of task A (the paper fixes X = 16)
	T      float64 // duration of task A (the paper fixes T = 25)
	Alpha  float64 // shape parameter in (0, 1]; X*Alpha must be integral
	Laxity float64 // slack ratio in [0, 1)
}

// Validate checks the parameter ranges and the integrality of X*Alpha.
func (p FigureJob) Validate() error {
	if p.X < 1 {
		return fmt.Errorf("workload: x = %d must be >= 1", p.X)
	}
	if p.T <= 0 {
		return fmt.Errorf("workload: t = %v must be positive", p.T)
	}
	if !(p.Alpha > 0 && p.Alpha <= 1) {
		return fmt.Errorf("workload: alpha = %v must be in (0, 1]", p.Alpha)
	}
	if p.Laxity < 0 || p.Laxity >= 1 {
		return fmt.Errorf("workload: laxity = %v must be in [0, 1)", p.Laxity)
	}
	xa := float64(p.X) * p.Alpha
	if math.Abs(xa-math.Round(xa)) > 1e-9 || math.Round(xa) < 1 {
		return fmt.Errorf("workload: x*alpha = %v must be a positive integer", xa)
	}
	return nil
}

// procsB returns task B's processor count, x*alpha.
func (p FigureJob) procsB() int { return int(math.Round(float64(p.X) * p.Alpha)) }

// durationB returns task B's duration, t/alpha.
func (p FigureJob) durationB() float64 { return p.T / p.Alpha }

// deadlines returns (d1, d2) for a job released at r.
func (p FigureJob) deadlines(r float64) (d1, d2 float64) {
	tb := p.durationB()
	d1 = r + math.Max(p.T, tb)/(1-p.Laxity)
	d2 = r + (p.T+tb)/(1-p.Laxity)
	return d1, d2
}

// chains returns the chain set of a job released at r for the given system.
func (p FigureJob) chains(r float64, sys System) []core.Chain {
	d1, d2 := p.deadlines(r)
	taskA := func(dl float64) core.Task {
		return core.Task{Name: "A", Procs: p.X, Duration: p.T, Deadline: dl, Quality: 1}
	}
	taskB := func(dl float64) core.Task {
		return core.Task{Name: "B", Procs: p.procsB(), Duration: p.durationB(), Deadline: dl, Quality: 1}
	}
	shape1 := core.Chain{Name: "shape1", Quality: 1, Tasks: []core.Task{taskA(d1), taskB(d2)}}
	shape2 := core.Chain{Name: "shape2", Quality: 1, Tasks: []core.Task{taskB(d1), taskA(d2)}}
	switch sys {
	case Shape1:
		return []core.Chain{shape1}
	case Shape2:
		return []core.Chain{shape2}
	default:
		return []core.Chain{shape1, shape2}
	}
}

// Job materializes a job with the given id and release time.
func (p FigureJob) Job(id int, release float64, sys System) core.Job {
	return core.Job{
		ID:      id,
		Name:    fmt.Sprintf("fig4-%s-%d", sys, id),
		Release: release,
		Chains:  p.chains(release, sys),
	}
}

// Area returns the total work of one job (both tasks), 2*x*t.
func (p FigureJob) Area() float64 { return 2 * float64(p.X) * p.T }

// ValidAlphas returns every alpha in (0, 1] for which x*alpha is integral,
// ascending — the sweep domain of Figure 5(d).
func ValidAlphas(x int) []float64 {
	var out []float64
	for k := 1; k <= x; k++ {
		out = append(out, float64(k)/float64(x))
	}
	return out
}

// Arrivals produces job release times.
type Arrivals interface {
	// Next returns the next interarrival gap (> 0).
	Next() float64
}

// Poisson generates exponentially distributed interarrival gaps with the
// given mean (a Poisson arrival process, as in the paper's evaluation).
type Poisson struct {
	Mean float64
	Rng  *rand.Rand
}

// NewPoisson returns a Poisson arrival process with the given mean gap and
// seed.
func NewPoisson(mean float64, seed int64) *Poisson {
	if mean <= 0 {
		panic(fmt.Sprintf("workload: poisson mean %v must be positive", mean))
	}
	return &Poisson{Mean: mean, Rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next exponential gap.
func (p *Poisson) Next() float64 { return p.Rng.ExpFloat64() * p.Mean }

// Uniform generates gaps uniform in [Lo, Hi) — a low-variance alternative
// used by tests and the video-pipeline example (fixed frame rate with
// jitter).
type Uniform struct {
	Lo, Hi float64
	Rng    *rand.Rand
}

// NewUniform returns a uniform arrival process.
func NewUniform(lo, hi float64, seed int64) *Uniform {
	if lo < 0 || hi <= lo {
		panic(fmt.Sprintf("workload: bad uniform range [%v, %v)", lo, hi))
	}
	return &Uniform{Lo: lo, Hi: hi, Rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next uniform gap.
func (u *Uniform) Next() float64 { return u.Lo + u.Rng.Float64()*(u.Hi-u.Lo) }

// Bursty is a two-phase Markov-modulated arrival process: gaps alternate
// between a busy phase (short exponential gaps) and an idle phase (long
// ones), with geometric phase lengths.  Live workloads are bursty, not
// Poisson; tunability should help most inside the bursts.
type Bursty struct {
	BusyMean  float64 // mean gap inside a burst
	IdleMean  float64 // mean gap between bursts
	MeanPhase float64 // mean arrivals per phase (geometric)
	Rng       *rand.Rand
	inBusy    bool
	phaseLeft int
}

// NewBursty returns a bursty arrival process.
func NewBursty(busyMean, idleMean, meanPhase float64, seed int64) *Bursty {
	if busyMean <= 0 || idleMean <= 0 || meanPhase < 1 {
		panic(fmt.Sprintf("workload: bad bursty params (%v, %v, %v)", busyMean, idleMean, meanPhase))
	}
	return &Bursty{
		BusyMean:  busyMean,
		IdleMean:  idleMean,
		MeanPhase: meanPhase,
		Rng:       rand.New(rand.NewSource(seed)),
		inBusy:    true,
	}
}

// Next returns the next gap, advancing phases geometrically.
func (b *Bursty) Next() float64 {
	if b.phaseLeft <= 0 {
		b.inBusy = !b.inBusy
		b.phaseLeft = 1 + int(b.Rng.ExpFloat64()*(b.MeanPhase-1))
	}
	b.phaseLeft--
	mean := b.BusyMean
	if !b.inBusy {
		mean = b.IdleMean
	}
	return b.Rng.ExpFloat64() * mean
}

// Stream materializes n jobs released by a: job i is mk(i, r_i), where
// r_i sums the first i+1 gaps, so the first job is released one gap after
// time 0.  It is the one arrival roll of every simulated driver.
func Stream(a Arrivals, n int, mk func(id int, release float64) core.Job) []core.Job {
	jobs := make([]core.Job, n)
	r := 0.0
	for i := range jobs {
		r += a.Next()
		jobs[i] = mk(i, r)
	}
	return jobs
}

// Stream materializes n Figure-4 jobs of the given system released by a.
func (p FigureJob) Stream(a Arrivals, n int, sys System) []core.Job {
	return Stream(a, n, func(id int, r float64) core.Job { return p.Job(id, r, sys) })
}

// TenantCycle deterministically assigns accounting identity (tenant and
// priority class) to a stream of arrivals: job i bills to tenant
// Tenants[i mod len] at class (i / len) mod Classes.  Round-robin keeps
// multi-tenant runs reproducible — the same seed and arrival process
// always yield the same per-tenant ledger — and spreads classes across
// tenants so every (tenant, class) cell sees traffic.
type TenantCycle struct {
	Tenants []string
	Classes int // priority classes per tenant; <= 1 means a single class 0
}

// Assign returns the tenant and class for arrival id.  A nil cycle or an
// empty tenant list assigns the unattributed identity ("", 0).
func (tc *TenantCycle) Assign(id int) (tenant string, class int) {
	if tc == nil || len(tc.Tenants) == 0 {
		return "", 0
	}
	if id < 0 {
		id = -id
	}
	tenant = tc.Tenants[id%len(tc.Tenants)]
	if tc.Classes > 1 {
		class = (id / len(tc.Tenants)) % tc.Classes
	}
	return tenant, class
}

// SkewedTenants assigns tenants with a deterministic hot spot: HotPer of
// every Per consecutive arrivals bill to the Hot tenant, the rest cycle
// through Cold.  This is the identity skew an arrival storm needs — one
// tenant dominating the stream — while staying a pure function of the
// arrival id, so campaign runs replay bit-identically from their seed.
type SkewedTenants struct {
	Hot     string
	Cold    []string
	HotPer  int // arrivals per window billed to Hot (default 3)
	Per     int // window length (default 4)
	Classes int
}

// Assign returns the tenant and class for arrival id.
func (s *SkewedTenants) Assign(id int) (tenant string, class int) {
	if s == nil {
		return "", 0
	}
	if id < 0 {
		id = -id
	}
	per, hot := s.Per, s.HotPer
	if per < 1 {
		per = 4
	}
	if hot < 1 {
		hot = 3
	}
	if hot > per {
		hot = per
	}
	if s.Classes > 1 {
		class = id % s.Classes
	}
	pos := id % per
	if pos < hot || len(s.Cold) == 0 {
		return s.Hot, class
	}
	cold := (id/per)*(per-hot) + (pos - hot)
	return s.Cold[cold%len(s.Cold)], class
}
