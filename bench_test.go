// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (5a-5d, 6a, 6b, and the Figure-2 junction-detection table), plus
// ablations of the scheduler's design choices and micro-benchmarks of the
// hot paths.  Figure benches run reduced sweeps per iteration and report
// the headline quantity (throughput gain, utilization gain) as custom
// metrics; `cmd/tunesim` runs the full 10,000-job sweeps.
package milan_test

import (
	"math"
	"testing"

	"milan"
	"milan/internal/calypso"
	"milan/internal/core"
	"milan/internal/experiments"
	"milan/internal/fed"
	"milan/internal/junction"
	"milan/internal/obs"
	"milan/internal/workload"
)

// benchConfig is the reduced-size configuration used inside benchmark
// iterations (same regime as the paper: machine comparable to the wide
// task).
func benchConfig(jobs int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Procs = 16
	cfg.Jobs = jobs
	return cfg
}

// tunableGain is how far the tunable system leads the better of the two
// fixed shapes at one sweep point, by the given measure.
func tunableGain(pt experiments.Point, measure func(experiments.RunResult) float64) float64 {
	r := pt.Results
	return measure(r[workload.Tunable]) - math.Max(measure(r[workload.Shape1]), measure(r[workload.Shape2]))
}

func admitted(r experiments.RunResult) float64    { return float64(r.Admitted) }
func utilization(r experiments.RunResult) float64 { return r.Utilization }

func BenchmarkFig5aArrivalSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(1000)
	intervals := []float64{10, 30, 50, 70, 85}
	var gain int
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5a(cfg, intervals)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, pt := range fig.Points {
			if g := int(tunableGain(pt, admitted)); g > gain {
				gain = g
			}
		}
	}
	b.ReportMetric(float64(gain), "peak-thr-gain")
}

func BenchmarkFig5bLaxitySweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(1000)
	laxities := []float64{0.05, 0.3, 0.5, 0.7, 0.95}
	var gain int
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5b(cfg, laxities)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, pt := range fig.Points {
			if g := int(tunableGain(pt, admitted)); g > gain {
				gain = g
			}
		}
	}
	b.ReportMetric(float64(gain), "peak-thr-gain")
}

func BenchmarkFig5cMachineSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(1000)
	procs := []float64{16, 24, 32, 48, 64}
	var gain float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5c(cfg, procs)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, pt := range fig.Points {
			if g := tunableGain(pt, utilization); g > gain {
				gain = g
			}
		}
	}
	b.ReportMetric(gain, "peak-util-gain")
}

func BenchmarkFig5dAlphaSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(1000)
	alphas := []float64{0.0625, 0.25, 0.5, 0.75, 1}
	var gain int
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5d(cfg, alphas)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, pt := range fig.Points {
			if g := int(tunableGain(pt, admitted)); g > gain {
				gain = g
			}
		}
	}
	b.ReportMetric(float64(gain), "peak-thr-gain")
}

func BenchmarkFig6aBenefitGridNonMalleable(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(600)
	intervals := []float64{20, 40, 60}
	laxities := []float64{0.2, 0.5, 0.8}
	var max int
	for i := 0; i < b.N; i++ {
		grid, err := experiments.Fig6(cfg, intervals, laxities, false)
		if err != nil {
			b.Fatal(err)
		}
		max = math.MinInt32
		for _, row := range append(grid.VsShape1, grid.VsShape2...) {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
	}
	b.ReportMetric(float64(max), "peak-benefit")
}

func BenchmarkFig6bBenefitGridMalleable(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(600)
	intervals := []float64{20, 40, 60}
	laxities := []float64{0.2, 0.5, 0.8}
	var max int
	for i := 0; i < b.N; i++ {
		grid, err := experiments.Fig6(cfg, intervals, laxities, true)
		if err != nil {
			b.Fatal(err)
		}
		max = math.MinInt32
		for _, row := range append(grid.VsShape1, grid.VsShape2...) {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
	}
	b.ReportMetric(float64(max), "peak-benefit")
}

func BenchmarkFig2JunctionConfigs(b *testing.B) {
	b.ReportAllocs()
	im, truth := junction.Synthesize(junction.DefaultSynthSpec())
	var f1 float64
	for i := 0; i < b.N; i++ {
		for _, p := range []junction.Params{junction.FineParams(), junction.CoarseParams()} {
			rt, err := calypso.New(calypso.Config{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			res, err := junction.RunScored(rt, im, p, truth, 4)
			if err != nil {
				b.Fatal(err)
			}
			f1 = res.Quality.F1
		}
	}
	b.ReportMetric(f1, "coarse-f1")
}

// Ablations: the design choices DESIGN.md calls out, each measured against
// the paper configuration on the same workload.

func runAblation(b *testing.B, opts *core.Options) int {
	b.ReportAllocs()
	cfg := benchConfig(1500)
	cfg.Opts = opts
	var admitted int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(cfg, workload.Tunable)
		if err != nil {
			b.Fatal(err)
		}
		admitted = r.Admitted
	}
	b.ReportMetric(float64(admitted), "admitted")
	return admitted
}

func BenchmarkAblationTieBreakPaper(b *testing.B) {
	runAblation(b, nil)
}

func BenchmarkAblationTieBreakFirstFit(b *testing.B) {
	runAblation(b, &core.Options{TieBreak: core.TieBreakFirstFit})
}

func BenchmarkAblationTieBreakMinArea(b *testing.B) {
	runAblation(b, &core.Options{TieBreak: core.TieBreakMinArea})
}

func BenchmarkAblationTieBreakUtilFirst(b *testing.B) {
	runAblation(b, &core.Options{TieBreak: core.TieBreakUtilFirst})
}

// Micro-benchmarks of the scheduler's hot paths.

func BenchmarkSchedulerAdmitTunable(b *testing.B) {
	b.ReportAllocs()
	spec := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	s := core.NewScheduler(16, 0, nil)
	release := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release += 30
		s.Observe(release)
		_, _ = s.Admit(spec.Job(i, release, workload.Tunable))
	}
}

// BenchmarkAdmitNilSink is the unobserved fast path: the one-shard plane
// has no decision observer, so recording a decision is one nil comparison.
// Compare with BenchmarkAdmitInstrumented to measure the observability
// layer's cost.
func BenchmarkAdmitNilSink(b *testing.B) {
	benchmarkArbitratorAdmit(b, fed.Config{Procs: 16})
}

// BenchmarkAdmitInstrumented runs the same admission stream with a full
// observer attached to the decision feed (registry metrics + ring-buffer
// tracing).
func BenchmarkAdmitInstrumented(b *testing.B) {
	o := obs.New(obs.Config{})
	benchmarkArbitratorAdmit(b, fed.Config{Procs: 16, Observer: o.DecisionObserver(nil)})
}

func benchmarkArbitratorAdmit(b *testing.B, cfg fed.Config) {
	b.ReportAllocs()
	spec := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	arb, err := fed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	release := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release += 30
		arb.Observe(release)
		_, _ = arb.Negotiate(spec.Job(i, release, workload.Tunable))
	}
}

func BenchmarkProfileEarliestFit(b *testing.B) {
	b.ReportAllocs()
	p := core.NewProfile(64, 0)
	for i := 0; i < 200; i++ {
		s, ok := p.EarliestFit(1+i%8, 5, float64(i), math.Inf(1))
		if !ok {
			b.Fatal("no fit")
		}
		if err := p.Reserve(1+i%8, s, s+5); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.EarliestFit(8, 12, 0, math.Inf(1)); !ok {
			b.Fatal("no fit")
		}
	}
}

func BenchmarkMaximalHoles(b *testing.B) {
	b.ReportAllocs()
	p := core.NewProfile(64, 0)
	for i := 0; i < 200; i++ {
		s, ok := p.EarliestFit(1+i%8, 5, float64(i), math.Inf(1))
		if !ok {
			b.Fatal("no fit")
		}
		if err := p.Reserve(1+i%8, s, s+5); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if holes := p.MaximalHoles(0); len(holes) == 0 {
			b.Fatal("no holes")
		}
	}
}

func BenchmarkCalypsoStep(b *testing.B) {
	b.ReportAllocs()
	rt, err := calypso.New(calypso.Config{Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]int, 1<<16)
	for i := range data {
		data[i] = i
	}
	seed := func(ctx *calypso.TaskCtx, w, n int) error { ctx.Write("data", data); return nil }
	if err := rt.Parallel(1, seed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := rt.Parallel(8, func(ctx *calypso.TaskCtx, w, n int) error {
			v, _ := ctx.Read("data")
			d := v.([]int)
			sum := 0
			for k := n; k < len(d); k += w {
				sum += d[k]
			}
			ctx.Write(benchKey(n), sum)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchKey(n int) string {
	return string(rune('a' + n))
}

func BenchmarkTunelangParse(b *testing.B) {
	src := `
task_control_parameters { g; d; c; }
task sample deadline 10 params (g) {
    config (g = 16) require 4 procs 8 time quality 1.0;
    config (g = 64) require 4 procs 2 time quality 0.95;
}
task_select mark {
    when (g == 16) { task fine deadline 14 params (d) { config (d = 2) require 2 procs 3 time; } } finally { c = 1; }
    when (g == 64) { task coarse deadline 14 params (d) { config (d = 8) require 2 procs 4 time; } } finally { c = 2; }
}
task compute deadline 40 params (c) {
    config (c = 1) require 4 procs 10 time quality 1.0;
    config (c = 2) require 8 procs 12 time quality 0.9;
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := milan.ParseTunability("bench", src)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := g.Enumerate(0); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension benchmarks: the quality-maximization and renegotiation
// experiments (EXT-Q, EXT-R in EXPERIMENTS.md) and DAG admission.

func BenchmarkExtQQualitySweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(800)
	var total float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.QualitySweep(cfg, []float64{20, 45, 85}, 0.5, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, pt := range pts {
			for _, r := range pt.Results {
				if r.Policy == "max-quality" {
					total += r.TotalQuality
				}
			}
		}
	}
	b.ReportMetric(total, "maxq-total-quality")
}

func BenchmarkExtRChurn(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(800)
	var completed int
	for i := 0; i < b.N; i++ {
		results, err := experiments.ChurnRun(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		completed = results[0].Completed
	}
	b.ReportMetric(float64(completed), "dynamic-completed")
}

func BenchmarkDAGAdmit(b *testing.B) {
	b.ReportAllocs()
	s := core.NewScheduler(16, 0, nil)
	release := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release += 30
		s.Observe(release)
		dl := release + 200
		dag := core.DAG{Name: "diamond", Tasks: []core.DAGTask{
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: dl}},
			{Task: core.Task{Procs: 6, Duration: 10, Deadline: dl}, Preds: []int{0}},
			{Task: core.Task{Procs: 6, Duration: 10, Deadline: dl}, Preds: []int{0}},
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: dl}, Preds: []int{1, 2}},
		}}
		_, _ = s.AdmitDAG(core.DAGJob{ID: i, Release: release, Alts: []core.DAG{dag}})
	}
}
