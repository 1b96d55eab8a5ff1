package experiments

import (
	"math"
	"strings"
	"testing"

	"milan/internal/workload"
)

// testConfig is a reduced-size configuration in the regime the paper
// evaluates (machine size comparable to the wide task's width).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Procs = 16
	cfg.Jobs = 800
	return cfg
}

func mustRun(t *testing.T, cfg Config, sys workload.System) RunResult {
	t.Helper()
	r, err := Run(cfg, sys)
	if err != nil {
		t.Fatalf("Run(%v): %v", sys, err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Procs = 0
	if bad.validate() == nil {
		t.Error("procs=0 accepted")
	}
	bad = DefaultConfig()
	bad.Jobs = 0
	if bad.validate() == nil {
		t.Error("jobs=0 accepted")
	}
	bad = DefaultConfig()
	bad.MeanInterarrival = 0
	if bad.validate() == nil {
		t.Error("interval=0 accepted")
	}
	bad = DefaultConfig()
	bad.Job.Alpha = 0.3 // 16*0.3 not integral
	if bad.validate() == nil {
		t.Error("bad alpha accepted")
	}
}

func TestOfferedLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 16
	cfg.MeanInterarrival = 50
	// Job area 2*16*25 = 800; capacity rate 16*50 = 800 per arrival.
	if got := cfg.OfferedLoad(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("OfferedLoad = %v, want 1.0", got)
	}
}

func TestRunBasicAccounting(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, workload.Tunable)
	if r.Admitted+r.Rejected != cfg.Jobs {
		t.Fatalf("admitted %d + rejected %d != jobs %d", r.Admitted, r.Rejected, cfg.Jobs)
	}
	if r.Admitted == 0 {
		t.Fatal("no jobs admitted at moderate load")
	}
	if r.Utilization <= 0 || r.Utilization > 1+1e-9 {
		t.Fatalf("utilization = %v outside (0, 1]", r.Utilization)
	}
	if r.Horizon <= 0 {
		t.Fatalf("horizon = %v", r.Horizon)
	}
	if r.throughput() != r.Admitted {
		t.Fatal("throughput must equal admitted (reservations guarantee deadlines)")
	}
	var share int
	for _, c := range r.ChainShare {
		share += c
	}
	if share != r.Admitted {
		t.Fatalf("chain shares %v sum to %d, want %d", r.ChainShare, share, r.Admitted)
	}
	if r.MeanLateSlack < 0 {
		t.Fatalf("mean slack %v negative: some admitted job finished past its deadline", r.MeanLateSlack)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 300
	a := mustRun(t, cfg, workload.Tunable)
	b := mustRun(t, cfg, workload.Tunable)
	if a.Admitted != b.Admitted || a.Utilization != b.Utilization || a.Horizon != b.Horizon {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	c := mustRun(t, cfg, workload.Tunable)
	if c.Admitted == a.Admitted && c.Horizon == a.Horizon {
		t.Fatal("different seed produced identical run (suspicious)")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Procs = -1
	if _, err := Run(cfg, workload.Tunable); err == nil {
		t.Fatal("invalid config ran")
	}
}

// TestTunableDominatesAtModerateLoad reproduces the headline claim at the
// default operating point: the tunable system admits at least as many jobs
// and utilizes the machine at least as well as both non-tunable systems.
func TestTunableDominatesAtModerateLoad(t *testing.T) {
	cfg := testConfig()
	tun := mustRun(t, cfg, workload.Tunable)
	s1 := mustRun(t, cfg, workload.Shape1)
	s2 := mustRun(t, cfg, workload.Shape2)
	if tun.throughput() < s1.throughput() || tun.throughput() < s2.throughput() {
		t.Fatalf("tunable throughput %d below shapes (%d, %d)",
			tun.throughput(), s1.throughput(), s2.throughput())
	}
	if tun.Utilization < s1.Utilization-1e-9 || tun.Utilization < s2.Utilization-1e-9 {
		t.Fatalf("tunable utilization %.3f below shapes (%.3f, %.3f)",
			tun.Utilization, s1.Utilization, s2.Utilization)
	}
	// The benefit is substantial at this operating point, not a rounding
	// artifact (the paper reports up to 30% more on-time jobs).
	if gain := tun.throughput() - s1.throughput(); gain < cfg.Jobs/10 {
		t.Errorf("gain over shape1 = %d, want >= %d", gain, cfg.Jobs/10)
	}
}

// TestTunableUsesBothChains: at moderate load the scheduler really
// exercises tunability (both execution paths are chosen many times).
func TestTunableUsesBothChains(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, workload.Tunable)
	if len(r.ChainShare) < 2 {
		t.Fatalf("chain share = %v", r.ChainShare)
	}
	for i, c := range r.ChainShare {
		if c < cfg.Jobs/20 {
			t.Errorf("chain %d chosen only %d times of %d", i, c, r.Admitted)
		}
	}
}

// TestNonTunableSystemsUseSingleChain: sanity — shape systems never report
// a second chain.
func TestNonTunableSystemsUseSingleChain(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 200
	for _, sys := range []workload.System{workload.Shape1, workload.Shape2} {
		r := mustRun(t, cfg, sys)
		if len(r.ChainShare) > 1 {
			t.Errorf("%v chain share = %v", sys, r.ChainShare)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 400
	fig, err := Fig5a(cfg, []float64{10, 40, 70})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "5a" || len(fig.Points) != 3 {
		t.Fatalf("fig = %+v", fig)
	}
	// Under extreme overload (interval 10) the tunable gain is negligible
	// relative to the mid-range gain (interval 40): the paper's claim that
	// tunability matters most at moderate overload.
	overload := fig.Points[0].throughputGain()
	mid := fig.Points[1].throughputGain()
	if mid <= overload {
		t.Errorf("mid-range gain %d not above overload gain %d", mid, overload)
	}
	// Throughput of every system increases with the arrival interval.
	for _, sys := range workload.Systems {
		prev := -1
		for _, pt := range fig.Points {
			cur := pt.Results[sys].throughput()
			if cur < prev {
				t.Errorf("%v throughput decreased from %d to %d as load fell", sys, prev, cur)
			}
			prev = cur
		}
	}
}

func TestFig5bShape(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 400
	fig, err := Fig5b(cfg, []float64{0.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Shape 2 catches up with the tunable system at high laxity: the
	// benefit over shape 2 shrinks.
	gainOverShape2 := func(p Point) int {
		return p.Results[workload.Tunable].throughput() - p.Results[workload.Shape2].throughput()
	}
	lo, hi := gainOverShape2(fig.Points[0]), gainOverShape2(fig.Points[1])
	if hi >= lo {
		t.Errorf("gain over shape2 did not shrink with laxity: %d -> %d", lo, hi)
	}
	// Shape 1 remains handicapped even with loose deadlines (its first
	// task needs the whole machine).
	s1 := fig.Points[1].Results[workload.Shape1]
	tun := fig.Points[1].Results[workload.Tunable]
	if s1.throughput() >= tun.throughput() {
		t.Errorf("shape1 (%d) caught up with tunable (%d) at laxity 0.9", s1.throughput(), tun.throughput())
	}
}

func TestFig5dAlphaOneNoBenefit(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 300
	fig, err := Fig5d(cfg, []float64{0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	// At alpha = 1 the two shapes coincide, so tunability is worthless.
	last := fig.Points[len(fig.Points)-1]
	if g := last.throughputGain(); g != 0 {
		t.Errorf("alpha=1 throughput gain = %d, want 0", g)
	}
	if g := utilGain(last); math.Abs(g) > 1e-9 {
		t.Errorf("alpha=1 utilization gain = %v, want 0", g)
	}
	if g := fig.Points[0].throughputGain(); g <= 0 {
		t.Errorf("alpha=0.25 throughput gain = %d, want positive", g)
	}
}

func TestFig5cRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 200
	fig, err := Fig5c(cfg, []float64{16, 24})
	if err != nil {
		t.Fatal(err)
	}
	// More processors -> more admitted jobs for every system.
	for _, sys := range workload.Systems {
		a := fig.Points[0].Results[sys].throughput()
		b := fig.Points[1].Results[sys].throughput()
		if b < a {
			t.Errorf("%v: throughput fell from %d to %d with more processors", sys, a, b)
		}
	}
}

func TestFig6MalleableBenefitSmaller(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 500
	intervals := []float64{30}
	laxities := []float64{0.5}
	nonMall, err := Fig6(cfg, intervals, laxities, false)
	if err != nil {
		t.Fatal(err)
	}
	mall, err := Fig6(cfg, intervals, laxities, true)
	if err != nil {
		t.Fatal(err)
	}
	if nonMall.ID != "6a" || mall.ID != "6b" || !mall.Malleable {
		t.Fatalf("grid ids: %s %s", nonMall.ID, mall.ID)
	}
	// Section 5.4: malleability shrinks the benefit of tunability over
	// shape 1 but does not eliminate it at moderate overload and laxity.
	if mall.VsShape1[0][0] >= nonMall.VsShape1[0][0] {
		t.Errorf("malleable benefit vs shape1 (%d) not below non-malleable (%d)",
			mall.VsShape1[0][0], nonMall.VsShape1[0][0])
	}
	if mall.VsShape1[0][0] <= 0 {
		t.Errorf("malleable benefit vs shape1 = %d, want still positive", mall.VsShape1[0][0])
	}
}

func TestGridHelpers(t *testing.T) {
	g := [][]int{{1, -5}, {9, 3}}
	if got := maxBenefit(g); got != 9 {
		t.Errorf("MaxBenefit = %d", got)
	}
	if got := meanBenefit(g); got != 2 {
		t.Errorf("MeanBenefit = %v", got)
	}
	if got := meanBenefit(nil); got != 0 {
		t.Errorf("MeanBenefit(nil) = %v", got)
	}
}

func TestDefaultSweepDomains(t *testing.T) {
	iv := defaultIntervals()
	if iv[0] != 10 || iv[len(iv)-1] != 85 {
		t.Errorf("intervals = %v, want 10..85", iv)
	}
	lx := defaultLaxities()
	if lx[0] != 0.05 || lx[len(lx)-1] != 0.95 {
		t.Errorf("laxities = %v, want 0.05..0.95", lx)
	}
	pc := defaultProcs()
	if pc[0] != 16 || pc[len(pc)-1] != 64 {
		t.Errorf("procs = %v, want 16..64", pc)
	}
}

func TestWriteFigureAndGrid(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 100
	fig, err := Fig5a(cfg, []float64{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFigure(&sb, fig, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 5a", "util(tunable)", "thr(shape2)", "20", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	grid, err := Fig6(cfg, []float64{30}, []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteGrid(&sb, grid, cfg); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"Figure 6a", "benefit over shape 1", "benefit over shape 2", "non-malleable"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q:\n%s", want, out)
		}
	}
}

// utilGain returns tunable utilization minus the best non-tunable one.
func utilGain(p Point) float64 {
	t := p.Results[workload.Tunable].Utilization
	best := math.Max(p.Results[workload.Shape1].Utilization, p.Results[workload.Shape2].Utilization)
	return t - best
}
