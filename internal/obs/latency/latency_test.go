package latency

import (
	"sync"
	"testing"
	"time"

	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
)

func drive(p *Plane, total int64, durs [NumPhases]int64) {
	p.Done(1, 1, 0, total, durs, 0)
}

func TestPlaneRecordsHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(reg)
	rec := phase.Start(p, 7, 42)
	time.Sleep(time.Millisecond)
	rec.Mark(phase.Route)
	rec.End()

	s := reg.Snapshot()
	if h, ok := s.Histograms["latency_admit_ns"]; !ok || h.Count != 1 {
		t.Fatalf("e2e histogram = %+v", s.Histograms["latency_admit_ns"])
	}
	if h, ok := s.Histograms["latency_phase_route_ns"]; !ok || h.Count != 1 {
		t.Fatalf("route histogram = %+v", s.Histograms["latency_phase_route_ns"])
	}
	// Unmarked phases record nothing.
	if h := s.Histograms["latency_phase_journal_ns"]; h.Count != 0 {
		t.Fatalf("journal histogram unexpectedly fed: %+v", h)
	}
}

func TestRegressionCountsEnvelope(t *testing.T) {
	env := Envelope{E2E: 1000}
	env.Phase[phase.Probe] = 500
	p := New(obs.NewRegistry())
	p.SetEnvelope(env)

	var fast [NumPhases]int64
	fast[phase.Probe] = 100
	drive(p, 400, fast)
	var slow [NumPhases]int64
	slow[phase.Probe] = 900 // over the probe budget
	drive(p, 950, slow)     // e2e under budget
	var slowAll [NumPhases]int64
	slowAll[phase.Probe] = 2000
	drive(p, 2500, slowAll) // over both

	counts := p.RegressionCounts()
	// Only armed phases appear: probe plus e2e.
	if len(counts) != 2 {
		t.Fatalf("counts = %+v, want probe and e2e only", counts)
	}
	byName := map[string]PhaseCount{}
	for _, c := range counts {
		byName[c.Name] = c
	}
	if c := byName["probe"]; c.Total != 3 || c.Over != 2 {
		t.Fatalf("probe counts = %+v", c)
	}
	if c := byName["e2e"]; c.Total != 3 || c.Over != 1 {
		t.Fatalf("e2e counts = %+v", c)
	}

	// Clearing the envelope disarms the sentinel entirely.
	p.SetEnvelope(Envelope{})
	if counts := p.RegressionCounts(); len(counts) != 0 {
		t.Fatalf("disarmed plane still reports %+v", counts)
	}
}

// TestTargetCountNeedsNoEnvelope: the count against Target is kept on a
// disarmed plane too, over the end-to-end time only.
func TestTargetCountNeedsNoEnvelope(t *testing.T) {
	p := New(obs.NewRegistry())
	var durs [NumPhases]int64
	drive(p, int64(Target), durs)   // at target: within it
	drive(p, int64(Target)+1, durs) // over
	drive(p, int64(time.Millisecond), durs)
	if c := p.TargetCount(); c.Total != 3 || c.Over != 1 {
		t.Fatalf("target count = %+v, want 1 over of 3", c)
	}
	if n := p.Admissions().Count; n != 3 {
		t.Fatalf("admissions histogram holds %d, want 3", n)
	}
}

// TestOverBudgetPhaseIsNamed: an admission whose probe phase alone is over
// budget is counted over in probe and in no other phase, and its time shows
// in the probe histogram and in the exemplar's waterfall.
func TestOverBudgetPhaseIsNamed(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(reg)
	p.SetEnvelope(uniform(time.Millisecond))

	var durs [NumPhases]int64
	durs[phase.Route] = int64(time.Microsecond)
	durs[phase.Probe] = int64(50 * time.Millisecond)
	p.Done(1, 1, 0, durs[phase.Route]+durs[phase.Probe], durs, phase.NowNanos())

	byName := map[string]PhaseCount{}
	for _, c := range p.RegressionCounts() {
		byName[c.Name] = c
	}
	if c := byName["probe"]; c.Over != 1 {
		t.Fatalf("slow probe phase not counted over budget: %+v", byName)
	}
	if c := byName["route"]; c.Over != 0 {
		t.Fatalf("the probe's time bled into route: %+v", byName)
	}
	if h := reg.Snapshot().Histograms["latency_phase_probe_ns"]; h.Count != 1 || h.Sum < 5e7 {
		t.Fatalf("probe histogram = %+v", h)
	}
	top := p.topK()
	if len(top) == 0 || top[0].Durs[phase.Probe] < 5e7 {
		t.Fatalf("exemplar waterfall missing the probe time: %+v", top)
	}

	// A fast admission is not counted over.
	rec := phase.Start(p, 1, 2)
	rec.End()
	for _, c := range p.RegressionCounts() {
		if c.Name == "probe" && (c.Total != 2 || c.Over != 1) {
			t.Fatalf("after a fast admission, probe counts = %+v", c)
		}
	}
}

// Nil-plane contract: the whole lifecycle is inert and allocation-free.
func TestNilPlaneZeroCost(t *testing.T) {
	var p *Plane
	p.SetEnvelope(uniform(time.Second))
	if p.RegressionCounts() != nil || p.topK() != nil {
		t.Fatal("nil plane returned state")
	}
	if p.envelope() != (Envelope{}) {
		t.Fatal("nil plane returned an envelope")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec := phase.Start(nil, 1, 2) // what the server starts with no plane
		rec.Mark(phase.Route)
		rec.Mark(phase.Plan)
		rec.SetShard(1)
		rec.End()
	})
	if allocs != 0 {
		t.Fatalf("nil plane lifecycle allocated %.1f/op, want 0", allocs)
	}
}

func TestExemplarRingTopK(t *testing.T) {
	p := New(obs.NewRegistry())
	for i := int64(1); i <= 10; i++ {
		var durs [NumPhases]int64
		durs[ackPhase] = i * 100
		p.Done(uint64(i), i, 0, i*100, durs, 0)
	}
	top := p.topK()
	if len(top) != exemplarK {
		t.Fatalf("topK returned %d exemplars, want %d", len(top), exemplarK)
	}
	// Slowest first: totals 1000, 900, ..., 300.
	for i, want := range []int64{1000, 900, 800, 700, 600, 500, 400, 300} {
		if top[i].Total != want {
			t.Fatalf("topK[%d].Total = %d, want %d (%+v)", i, top[i].Total, want, top)
		}
	}
	// A fast request cannot displace the ring once the threshold is up.
	var durs [NumPhases]int64
	durs[ackPhase] = 50
	p.Done(99, 99, 0, 50, durs, 0)
	if got := p.topK(); got[len(got)-1].Total < 300 {
		t.Fatalf("fast request displaced a tail exemplar: %+v", got)
	}
}

func TestExemplarWindowRotation(t *testing.T) {
	p := New(obs.NewRegistry())
	p.ex.init(30 * time.Millisecond)
	var durs [NumPhases]int64
	durs[ackPhase] = 1000
	p.Done(1, 1, 0, 1000, durs, phase.NowNanos())
	time.Sleep(40 * time.Millisecond)
	// Rotation keeps the previous window's winners visible...
	durs[ackPhase] = 500
	p.Done(2, 2, 0, 500, durs, phase.NowNanos())
	top := p.topK()
	if len(top) != 2 || top[0].Total != 1000 || top[1].Total != 500 {
		t.Fatalf("current+previous windows = %+v", top)
	}
	// ...and a long quiet gap ages both out.
	time.Sleep(70 * time.Millisecond)
	durs[ackPhase] = 100
	p.Done(3, 3, 0, 100, durs, phase.NowNanos())
	top = p.topK()
	if len(top) != 1 || top[0].Total != 100 {
		t.Fatalf("stale exemplars survived a double-window gap: %+v", top)
	}
}

// TestExemplarWindowExpiresItsThreshold: a full window's threshold expires
// with the window, so the next window keeps its own slowest requests even
// when they are faster than the last window's K-th slowest.
func TestExemplarWindowExpiresItsThreshold(t *testing.T) {
	p := New(obs.NewRegistry())
	p.ex.init(30 * time.Millisecond)
	var durs [NumPhases]int64
	for i := int64(0); i < exemplarK; i++ {
		p.Done(uint64(i+1), i, 0, 1000+i, durs, phase.NowNanos())
	}
	time.Sleep(40 * time.Millisecond)
	p.Done(99, 99, 0, 500, durs, phase.NowNanos())
	for _, e := range p.topK() {
		if e.Total == 500 {
			return
		}
	}
	t.Fatalf("a new window dropped its slowest request: %+v", p.topK())
}

// TestExemplarRingConcurrentUse: records ending on several goroutines
// while windows rotate and a scraper reads never leave more than the two
// windows' exemplars in the ring (run under -race).
func TestExemplarRingConcurrentUse(t *testing.T) {
	p := New(obs.NewRegistry())
	p.ex.init(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var durs [NumPhases]int64
			for i := 0; i < 2000; i++ {
				p.Done(uint64(g), int64(i), 0, int64(i%97), durs, phase.NowNanos())
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if n := len(p.topK()); n > 2*exemplarK {
			t.Errorf("TopK returned %d exemplars, more than two windows' %d", n, 2*exemplarK)
		}
	}
	wg.Wait()
}

// TestDoneAllocatesNothing: consuming a record — histograms, envelope
// counters, an offer to the exemplar ring that places and one that does
// not — allocates nothing.
func TestDoneAllocatesNothing(t *testing.T) {
	p := New(obs.NewRegistry())
	p.SetEnvelope(uniform(time.Microsecond))
	var durs [NumPhases]int64
	durs[phase.Plan] = 2000
	total := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		total += 10
		p.Done(1, 1, 0, total, durs, phase.NowNanos()) // slowest yet: placed
		p.Done(2, 2, 0, 1, durs, phase.NowNanos())     // below the threshold
	})
	if allocs != 0 {
		t.Fatalf("Done allocated %.1f/op, want 0", allocs)
	}
}

func TestMergeTopK(t *testing.T) {
	a := []Exemplar{{Trace: 1, Total: 900}, {Trace: 2, Total: 100}}
	b := []Exemplar{{Trace: 3, Total: 500}, {Trace: 4, Total: 1000}}
	got := MergeTopK(3, a, b)
	if len(got) != 3 || got[0].Trace != 4 || got[1].Trace != 1 || got[2].Trace != 3 {
		t.Fatalf("MergeTopK = %+v", got)
	}
	if all := MergeTopK(0, a, b); len(all) != 4 {
		t.Fatalf("k=0 should keep everything, got %d", len(all))
	}
}

// ackPhase is the waterfall's last phase.
const ackPhase = NumPhases - 1

// uniform returns an envelope with every budget (per-phase and e2e) set
// to d.
func uniform(d time.Duration) Envelope {
	env := Envelope{E2E: int64(d)}
	for i := range env.Phase {
		env.Phase[i] = int64(d)
	}
	return env
}
