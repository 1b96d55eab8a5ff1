package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"milan/internal/core"
)

// chainArea is a chain's processor-time: the sum of its tasks' areas.
func chainArea(c core.Chain) float64 {
	var a float64
	for _, t := range c.Tasks {
		a += t.Area()
	}
	return a
}

func fig(alpha, laxity float64) FigureJob {
	return FigureJob{X: 16, T: 25, Alpha: alpha, Laxity: laxity}
}

func TestFigureJobValidate(t *testing.T) {
	if err := fig(0.25, 0.5).Validate(); err != nil {
		t.Errorf("paper defaults invalid: %v", err)
	}
	bad := []FigureJob{
		{X: 0, T: 25, Alpha: 0.25, Laxity: 0.5},
		{X: 16, T: 0, Alpha: 0.25, Laxity: 0.5},
		{X: 16, T: 25, Alpha: 0, Laxity: 0.5},
		{X: 16, T: 25, Alpha: 1.5, Laxity: 0.5},
		{X: 16, T: 25, Alpha: 0.25, Laxity: 1},
		{X: 16, T: 25, Alpha: 0.25, Laxity: -0.1},
		{X: 16, T: 25, Alpha: 0.3, Laxity: 0.5}, // 16*0.3 = 4.8 not integral
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: %+v accepted", i, p)
		}
	}
	// Every alpha from ValidAlphas must validate.
	for _, a := range ValidAlphas(16) {
		p := fig(a, 0.5)
		if err := p.Validate(); err != nil {
			t.Errorf("alpha %v: %v", a, err)
		}
	}
}

func TestFigureJobShapes(t *testing.T) {
	p := fig(0.25, 0.5)
	if got := p.procsB(); got != 4 {
		t.Errorf("ProcsB = %d, want 4", got)
	}
	if got := p.durationB(); got != 100 {
		t.Errorf("DurationB = %v, want 100", got)
	}
	if got := p.Area(); got != 800 {
		t.Errorf("Area = %v, want 2*16*25 = 800", got)
	}
}

func TestFigureJobTasksConserveWork(t *testing.T) {
	for _, a := range ValidAlphas(16) {
		p := fig(a, 0.5)
		j := p.Job(1, 0, Tunable)
		for _, c := range j.Chains {
			if got := chainArea(c); math.Abs(got-p.Area()) > 1e-9 {
				t.Errorf("alpha %v chain %s area = %v, want %v", a, c.Name, got, p.Area())
			}
		}
	}
}

func TestFigureJobDeadlineFormulas(t *testing.T) {
	p := fig(0.25, 0.5)
	r := 100.0
	d1, d2 := p.deadlines(r)
	// max(t, t/alpha) = 100; (t + t/alpha) = 125; divided by (1-0.5) = 2x.
	if math.Abs(d1-(r+200)) > 1e-9 {
		t.Errorf("d1 = %v, want %v", d1, r+200)
	}
	if math.Abs(d2-(r+250)) > 1e-9 {
		t.Errorf("d2 = %v, want %v", d2, r+250)
	}
	// Zero laxity: deadlines equal the pure processing times.
	p0 := fig(0.25, 0)
	d1, d2 = p0.deadlines(0)
	if math.Abs(d1-100) > 1e-9 || math.Abs(d2-125) > 1e-9 {
		t.Errorf("zero-laxity deadlines = (%v, %v), want (100, 125)", d1, d2)
	}
}

func TestFigureJobSystems(t *testing.T) {
	p := fig(0.25, 0.5)
	tun := p.Job(1, 0, Tunable)
	if len(tun.Chains) != 2 || !tun.Tunable() {
		t.Fatalf("tunable job chains = %d", len(tun.Chains))
	}
	s1 := p.Job(1, 0, Shape1)
	if len(s1.Chains) != 1 || s1.Chains[0].Tasks[0].Procs != 16 {
		t.Fatalf("shape1 first task = %+v", s1.Chains[0].Tasks[0])
	}
	s2 := p.Job(1, 0, Shape2)
	if len(s2.Chains) != 1 || s2.Chains[0].Tasks[0].Procs != 4 {
		t.Fatalf("shape2 first task = %+v", s2.Chains[0].Tasks[0])
	}
	// The tunable job's chains are exactly shape1 and shape2.
	if tun.Chains[0].Tasks[0].Procs != 16 || tun.Chains[1].Tasks[0].Procs != 4 {
		t.Error("tunable chain order: want shape1 then shape2")
	}
	// All generated jobs pass core validation.
	for _, j := range []core.Job{tun, s1, s2} {
		if err := j.Validate(); err != nil {
			t.Errorf("job %s: %v", j.Name, err)
		}
	}
}

func TestFigureJobAlphaOneShapesCoincide(t *testing.T) {
	p := fig(1, 0.5)
	j := p.Job(1, 0, Tunable)
	a, b := j.Chains[0], j.Chains[1]
	for i := range a.Tasks {
		if a.Tasks[i].Procs != b.Tasks[i].Procs || a.Tasks[i].Duration != b.Tasks[i].Duration {
			t.Fatalf("alpha=1: chains differ at task %d", i)
		}
	}
}

func TestValidAlphas(t *testing.T) {
	as := ValidAlphas(4)
	want := []float64{0.25, 0.5, 0.75, 1}
	if len(as) != len(want) {
		t.Fatalf("ValidAlphas(4) = %v", as)
	}
	for i := range want {
		if math.Abs(as[i]-want[i]) > 1e-12 {
			t.Errorf("alpha[%d] = %v, want %v", i, as[i], want[i])
		}
	}
}

func TestPoissonMean(t *testing.T) {
	p := NewPoisson(30, 42)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		g := p.Next()
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	mean := sum / float64(n)
	if math.Abs(mean-30) > 0.5 {
		t.Errorf("empirical mean %v, want ~30", mean)
	}
}

func TestPoissonDeterministicBySeed(t *testing.T) {
	a, b := NewPoisson(10, 7), NewPoisson(10, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPoissonPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPoisson(0, 1)
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(2, 5, 1)
	for i := 0; i < 1000; i++ {
		g := u.Next()
		if g < 2 || g >= 5 {
			t.Fatalf("gap %v outside [2, 5)", g)
		}
	}
}

func TestUniformPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewUniform(5, 2, 1)
}

func TestStreamReleasesAreIncreasing(t *testing.T) {
	p := fig(0.25, 0.5)
	jobs := p.Stream(NewPoisson(10, 3), 500, Tunable)
	if len(jobs) != 500 {
		t.Fatalf("len = %d", len(jobs))
	}
	prev := 0.0
	gaps := NewPoisson(10, 3)
	r := 0.0
	for i, j := range jobs {
		if j.Release < prev {
			t.Fatalf("job %d released at %v before %v", i, j.Release, prev)
		}
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		// The release is the running sum of the gaps, bit for bit.
		if r += gaps.Next(); j.Release != r {
			t.Fatalf("job %d released at %v, want the gap sum %v", i, j.Release, r)
		}
		prev = j.Release
	}
}

// TestQuickGeneratedJobsAlwaysValid: for all valid parameters and systems,
// generated jobs pass core validation and both chains carry equal work.
func TestQuickGeneratedJobsAlwaysValid(t *testing.T) {
	f := func(aIdx uint8, laxRaw uint8, rRaw uint16, sysRaw uint8) bool {
		alphas := ValidAlphas(16)
		p := FigureJob{
			X:      16,
			T:      25,
			Alpha:  alphas[int(aIdx)%len(alphas)],
			Laxity: float64(laxRaw%95) / 100,
		}
		if p.Validate() != nil {
			return false
		}
		sys := Systems[int(sysRaw)%len(Systems)]
		j := p.Job(1, float64(rRaw), sys)
		if j.Validate() != nil {
			return false
		}
		for _, c := range j.Chains {
			if math.Abs(chainArea(c)-p.Area()) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// newTestRand returns a deterministic *rand.Rand for tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestBurstyAlternatesPhases(t *testing.T) {
	b := NewBursty(1, 100, 10, 3)
	var gaps []float64
	for i := 0; i < 5000; i++ {
		g := b.Next()
		if g < 0 {
			t.Fatal("negative gap")
		}
		gaps = append(gaps, g)
	}
	// The mixture must contain both short-burst gaps and long idle gaps.
	short, long := 0, 0
	for _, g := range gaps {
		switch {
		case g < 5:
			short++
		case g > 50:
			long++
		}
	}
	if short < 1000 {
		t.Errorf("only %d short gaps: busy phase missing", short)
	}
	if long < 50 {
		t.Errorf("only %d long gaps: idle phase missing", long)
	}
	// Overall mean sits between the two phase means.
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if mean < 1 || mean > 100 {
		t.Errorf("mean gap %v outside (1, 100)", mean)
	}
}

func TestBurstyPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBursty(0, 1, 2, 1)
}
