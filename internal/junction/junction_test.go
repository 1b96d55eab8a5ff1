package junction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"milan/internal/calypso"
	"milan/internal/taskgraph"
)

func synth(t *testing.T) (*Image, []Point) {
	t.Helper()
	im, truth := Synthesize(DefaultSynthSpec())
	if len(truth) == 0 {
		t.Fatal("synthetic scene has no ground truth")
	}
	return im, truth
}

func TestImageBasics(t *testing.T) {
	im := newImage(4, 3)
	im.set(2, 1, 0.7)
	if got := im.at(2, 1); got != 0.7 {
		t.Fatalf("At = %v", got)
	}
	// Border clamping.
	im.set(0, 0, 0.3)
	if im.at(-5, -5) != 0.3 {
		t.Fatal("negative coords not clamped to origin")
	}
	if im.at(100, 100) != im.at(3, 2) {
		t.Fatal("overflow coords not clamped to max")
	}
	// Out-of-bounds writes dropped.
	im.set(-1, 0, 9)
	im.set(4, 0, 9)
	for _, v := range im.Pix {
		if v == 9 {
			t.Fatal("out-of-bounds write landed")
		}
	}
}

func TestNewImagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newImage(0, 5)
}

func TestSynthesizeDeterministicAndInRange(t *testing.T) {
	a, truthA := Synthesize(DefaultSynthSpec())
	b, truthB := Synthesize(DefaultSynthSpec())
	if len(truthA) != len(truthB) {
		t.Fatal("same seed produced different truth")
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different image")
		}
		if a.Pix[i] < 0 || a.Pix[i] > 1 {
			t.Fatalf("pixel %d out of range: %v", i, a.Pix[i])
		}
	}
	for _, p := range truthA {
		if p.X < 0 || p.X >= a.W || p.Y < 0 || p.Y >= a.H {
			t.Fatalf("truth point %v outside image", p)
		}
	}
}

func TestInterestingFiresOnEdgesNotFlats(t *testing.T) {
	im := newImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := 0.2
			if x >= 16 {
				v = 0.9
			}
			im.set(x, y, v)
		}
	}
	if interesting(im, 5, 16, 0.15) {
		t.Error("flat area marked interesting")
	}
	if !interesting(im, 16, 16, 0.15) {
		t.Error("step edge not marked interesting")
	}
}

func TestCornerLikeDistinguishesEdgesFromCorners(t *testing.T) {
	im := newImage(32, 32)
	// Dark square in the lower-right quadrant: corner at (16, 16).
	for y := 16; y < 32; y++ {
		for x := 16; x < 32; x++ {
			im.set(x, y, 1)
		}
	}
	if !cornerLike(im, 16, 16, 0.05) {
		t.Error("true corner rejected")
	}
	// Pure vertical edge far from the corner has no y-gradient.
	if cornerLike(im, 16, 28, 0.05) {
		t.Error("pure edge accepted as corner")
	}
}

func TestSamplePixelsRespectsGranularity(t *testing.T) {
	im, _ := synth(t)
	p := FineParams()
	_, fineWork := samplePixels(im, p, 0, im.H)
	c := CoarseParams()
	_, coarseWork := samplePixels(im, c, 0, im.H)
	wantFine := (im.H + 1) / 2 * ((im.W + 1) / 2)
	if fineWork != wantFine {
		t.Errorf("fine work = %d, want %d", fineWork, wantFine)
	}
	ratio := float64(fineWork) / float64(coarseWork)
	want := float64(c.Granularity*c.Granularity) / float64(p.Granularity*p.Granularity)
	if math.Abs(ratio-want) > 1 {
		t.Errorf("work ratio = %v, want ~%v", ratio, want)
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}}
	hull := convexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull = %v, want the 4 square corners", hull)
	}
	for _, c := range []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}} {
		found := false
		for _, h := range hull {
			if h == c {
				found = true
			}
		}
		if !found {
			t.Errorf("corner %v missing from hull %v", c, hull)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := convexHull([]Point{{1, 1}}); len(got) != 1 {
		t.Errorf("single point hull = %v", got)
	}
	if got := convexHull([]Point{{1, 1}, {2, 2}}); len(got) != 2 {
		t.Errorf("two point hull = %v", got)
	}
	// Collinear points: hull is the two extremes.
	col := convexHull([]Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
	if len(col) != 2 {
		t.Errorf("collinear hull = %v, want 2 extremes", col)
	}
}

// TestQuickHullContainsAllPoints: every input point lies inside (or on) the
// hull's bounding region.
func TestQuickHullContainsAllPoints(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw%30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Intn(50), rng.Intn(50)}
		}
		hull := convexHull(pts)
		reg := Region{Hull: hull, MinX: 0, MinY: 0, MaxX: 49, MaxY: 49}
		for _, p := range pts {
			if !reg.contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionContains(t *testing.T) {
	reg := Region{
		Hull: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		MinX: 0, MinY: 0, MaxX: 10, MaxY: 10,
	}
	if !reg.contains(Point{5, 5}) {
		t.Error("interior point rejected")
	}
	if !reg.contains(Point{0, 0}) {
		t.Error("vertex rejected")
	}
	if !reg.contains(Point{5, 0}) {
		t.Error("edge point rejected")
	}
	if reg.contains(Point{11, 5}) {
		t.Error("exterior point accepted")
	}
}

func TestMarkRegionsClustersBySearchDistance(t *testing.T) {
	im := newImage(100, 100)
	// Two groups of points 50 apart; search distance 10 keeps them apart,
	// 60 merges them.
	pts := []Point{{10, 10}, {12, 10}, {10, 12}, {60, 60}, {62, 60}, {60, 62}}
	p := Params{SearchDistance: 10, MinCluster: 2}
	regs := markRegions(im, p, pts)
	if len(regs) != 2 {
		t.Fatalf("got %d regions, want 2", len(regs))
	}
	p.SearchDistance = 80
	regs = markRegions(im, p, pts)
	if len(regs) != 1 {
		t.Fatalf("got %d regions, want 1 merged", len(regs))
	}
	// Min cluster size filters lonely points.
	p.SearchDistance = 10
	p.MinCluster = 4
	if regs = markRegions(im, p, pts); len(regs) != 0 {
		t.Fatalf("got %d regions, want 0 (below min cluster)", len(regs))
	}
	if regs = markRegions(im, p, nil); regs != nil {
		t.Fatal("regions from no points")
	}
}

func TestDetectJunctionsFindsSquareCorner(t *testing.T) {
	im := newImage(40, 40)
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			im.set(x, y, 1)
		}
	}
	reg := Region{MinX: 5, MinY: 5, MaxX: 35, MaxY: 35}
	p := FineParams()
	js, examined := detectJunctions(im, p, reg)
	if examined == 0 {
		t.Fatal("no pixels examined")
	}
	if len(js) < 4 {
		t.Fatalf("found %d junctions, want >= 4 corners", len(js))
	}
	// Every true corner matched within 2px.
	q := score([]Point{{10, 10}, {29, 10}, {10, 29}, {29, 29}}, js, 2)
	if q.Recall < 1 {
		t.Fatalf("corner recall = %v, junctions = %v", q.Recall, js)
	}
}

func TestScore(t *testing.T) {
	truth := []Point{{0, 0}, {10, 10}}
	det := []Junction{{P: Point{1, 1}}, {P: Point{50, 50}}}
	q := score(truth, det, 3)
	if q.Matched != 1 || q.Truth != 2 || q.Detected != 2 {
		t.Fatalf("q = %+v", q)
	}
	if q.Precision != 0.5 || q.Recall != 0.5 {
		t.Fatalf("p/r = %v/%v", q.Precision, q.Recall)
	}
	if math.Abs(q.F1-0.5) > 1e-12 {
		t.Fatalf("f1 = %v", q.F1)
	}
	// A detection matches at most one truth point.
	q = score([]Point{{0, 0}, {1, 1}}, []Junction{{P: Point{0, 0}}}, 5)
	if q.Matched != 1 {
		t.Fatalf("double-matched one detection: %+v", q)
	}
	// Empty edge cases.
	if q := score(nil, nil, 3); q.F1 != 0 {
		t.Fatalf("empty score = %+v", q)
	}
}

func TestPipelineFineAndCoarseTradeoff(t *testing.T) {
	im, truth := synth(t)
	rtF, _ := calypso.New(calypso.Config{Workers: 4})
	fine, err := RunScored(rtF, im, FineParams(), truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	rtC, _ := calypso.New(calypso.Config{Workers: 4})
	coarse, err := RunScored(rtC, im, CoarseParams(), truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The tunability tradeoff (paper Figure 2): coarse sampling spends far
	// less in step 1 and compensates with a larger step-3 allocation, at
	// comparable output quality.
	if coarse.Costs[0].Work*4 > fine.Costs[0].Work {
		t.Errorf("coarse sampling work %d not far below fine %d",
			coarse.Costs[0].Work, fine.Costs[0].Work)
	}
	if coarse.Costs[2].Work < fine.Costs[2].Work*4 {
		t.Errorf("coarse analysis work %d not far above fine %d",
			coarse.Costs[2].Work, fine.Costs[2].Work)
	}
	if fine.Quality.F1 < 0.85 {
		t.Errorf("fine F1 = %v, want >= 0.85", fine.Quality.F1)
	}
	if coarse.Quality.F1 < fine.Quality.F1-0.1 {
		t.Errorf("coarse F1 = %v, not comparable to fine %v",
			coarse.Quality.F1, fine.Quality.F1)
	}
}

func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	im, truth := synth(t)
	var detections []int
	for _, workers := range []int{1, 3, 8} {
		rt, _ := calypso.New(calypso.Config{Workers: workers})
		res, err := RunScored(rt, im, FineParams(), truth, 4)
		if err != nil {
			t.Fatal(err)
		}
		detections = append(detections, len(res.Junctions))
	}
	for i := 1; i < len(detections); i++ {
		if detections[i] != detections[0] {
			t.Fatalf("worker counts changed detections: %v", detections)
		}
	}
}

func TestPipelineUnderFaults(t *testing.T) {
	im, truth := synth(t)
	rt, err := calypso.New(calypso.Config{
		Workers: 6,
		Faults:  &calypso.FaultPlan{CrashProb: 0.05, TransientProb: 0.2, MaxCrashes: 4, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScored(rt, im, FineParams(), truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fault masking must not change the result.
	clean, _ := calypso.New(calypso.Config{Workers: 6})
	want, err := RunScored(clean, im, FineParams(), truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Junctions) != len(want.Junctions) {
		t.Fatalf("faulty run found %d junctions, clean run %d", len(res.Junctions), len(want.Junctions))
	}
	if res.Quality.F1 != want.Quality.F1 {
		t.Fatalf("faulty F1 %v != clean F1 %v", res.Quality.F1, want.Quality.F1)
	}
}

func TestBuildGraphFromProfiles(t *testing.T) {
	im, truth := synth(t)
	graph, profs, err := BuildGraph(4, im, truth, FineParams(), CoarseParams(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	chains, envs, err := graph.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("paths = %d, want 2", len(chains))
	}
	// Path 0 = fine: first task long (dense sampling), last task short.
	// Path 1 = coarse: opposite.
	fineChain, coarseChain := chains[0], chains[1]
	if fineChain.Tasks[0].Duration <= coarseChain.Tasks[0].Duration {
		t.Errorf("fine sampling %v not longer than coarse %v",
			fineChain.Tasks[0].Duration, coarseChain.Tasks[0].Duration)
	}
	if fineChain.Tasks[2].Duration >= coarseChain.Tasks[2].Duration {
		t.Errorf("fine analysis %v not shorter than coarse %v",
			fineChain.Tasks[2].Duration, coarseChain.Tasks[2].Duration)
	}
	// Environments round-trip to application parameters.
	pf, err := ParamsForEnv(envs[0], FineParams(), CoarseParams())
	if err != nil {
		t.Fatal(err)
	}
	if pf.Granularity != FineParams().Granularity {
		t.Errorf("env 0 params = %+v", pf)
	}
	pc, err := ParamsForEnv(envs[1], FineParams(), CoarseParams())
	if err != nil {
		t.Fatal(err)
	}
	if pc.Granularity != CoarseParams().Granularity {
		t.Errorf("env 1 params = %+v", pc)
	}
	if _, err := ParamsForEnv(taskgraphEnv(), FineParams(), CoarseParams()); err == nil {
		t.Error("empty env accepted")
	}
	// Profiled qualities are the measured F1s.
	if profs[0].Quality < 0.85 || profs[1].Quality < 0.75 {
		t.Errorf("profiled qualities = %v, %v", profs[0].Quality, profs[1].Quality)
	}
}

func TestParamsForEnvRejectsUnknownGranularity(t *testing.T) {
	env := taskgraphEnv()
	env["sampleGranularity"] = 99
	if _, err := ParamsForEnv(env, FineParams(), CoarseParams()); err == nil {
		t.Fatal("unknown granularity accepted")
	}
}

// taskgraphEnv returns an empty control-parameter environment.
func taskgraphEnv() taskgraph.Env { return taskgraph.Env{} }
