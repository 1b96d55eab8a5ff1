package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaximalHolesEmptyProfile(t *testing.T) {
	p := NewProfile(4, 0)
	holes := p.MaximalHoles(0)
	if len(holes) != 1 {
		t.Fatalf("got %d holes, want 1: %+v", len(holes), holes)
	}
	h := holes[0]
	if !timeEq(h.Start, 0) || !math.IsInf(h.End, 1) || h.Procs != 4 {
		t.Fatalf("hole = %+v, want {0, +inf, 4}", h)
	}
}

func TestMaximalHolesStaircase(t *testing.T) {
	// Usage: [0,10)=3, [10,20)=1, [20,inf)=0 on capacity 4.
	p := NewProfile(4, 0)
	mustReserve(t, p, 1, 0, 20)
	mustReserve(t, p, 2, 0, 10)
	holes := p.MaximalHoles(0)
	want := []Hole{
		{Start: 0, End: inf, Procs: 1},
		{Start: 10, End: inf, Procs: 3},
		{Start: 20, End: inf, Procs: 4},
	}
	if len(holes) != len(want) {
		t.Fatalf("got %d holes %+v, want %d", len(holes), holes, len(want))
	}
	for i, w := range want {
		h := holes[i]
		if !timeEq(h.Start, w.Start) || !timeEq(h.End, w.End) || h.Procs != w.Procs {
			t.Errorf("hole %d = %+v, want %+v", i, h, w)
		}
	}
	if err := p.validateHoles(holes, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalHolesValley(t *testing.T) {
	// Usage: [0,5)=0, [5,10)=4, [10,inf)=0 on capacity 4: two disjoint full
	// holes plus no hole spanning the busy middle.
	p := NewProfile(4, 0)
	mustReserve(t, p, 4, 5, 10)
	holes := p.MaximalHoles(0)
	if len(holes) != 2 {
		t.Fatalf("got %d holes %+v, want 2", len(holes), holes)
	}
	if !timeEq(holes[0].Start, 0) || !timeEq(holes[0].End, 5) || holes[0].Procs != 4 {
		t.Errorf("holes[0] = %+v, want {0,5,4}", holes[0])
	}
	if !timeEq(holes[1].Start, 10) || !math.IsInf(holes[1].End, 1) || holes[1].Procs != 4 {
		t.Errorf("holes[1] = %+v, want {10,+inf,4}", holes[1])
	}
}

func TestMaximalHolesPartialValley(t *testing.T) {
	// Usage: [0,5)=0, [5,10)=2, [10,inf)=0 on capacity 4: the height-2 hole
	// spans everything; two height-4 holes on the sides.
	p := NewProfile(4, 0)
	mustReserve(t, p, 2, 5, 10)
	holes := p.MaximalHoles(0)
	if err := p.validateHoles(holes, 0); err != nil {
		t.Fatal(err)
	}
	if len(holes) != 3 {
		t.Fatalf("got %d holes %+v, want 3", len(holes), holes)
	}
	var sawSpanning bool
	for _, h := range holes {
		if h.Procs == 2 && timeEq(h.Start, 0) && math.IsInf(h.End, 1) {
			sawSpanning = true
		}
	}
	if !sawSpanning {
		t.Fatalf("missing spanning height-2 hole in %+v", holes)
	}
}

func TestMaximalHolesFromClipsStart(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 2, 5, 10)
	holes := p.MaximalHoles(7)
	for _, h := range holes {
		if timeLess(h.Start, 7) {
			t.Errorf("hole %+v starts before from=7", h)
		}
	}
}

func TestMaximalHolesSkipsFullSegments(t *testing.T) {
	p := NewProfile(2, 0)
	mustReserve(t, p, 2, 0, 10)
	holes := p.MaximalHoles(0)
	for _, h := range holes {
		if h.Procs < 1 {
			t.Errorf("zero-height hole %+v", h)
		}
		if timeLess(h.Start, 10) {
			t.Errorf("hole %+v overlaps fully-busy prefix", h)
		}
	}
}

// earliestFitHoles answers the same question as Profile.EarliestFit but by
// scanning the maximal-hole set: the earliest s >= est with procs processors
// free over [s, s+duration) and s+duration <= deadline.  It is the paper's
// literal formulation, kept as the oracle the segment scan is checked
// against.
func (p *Profile) earliestFitHoles(procs int, duration, est, deadline float64) (float64, bool) {
	if procs > p.capacity || duration <= 0 {
		return 0, false
	}
	holes := p.MaximalHoles(est)
	best := math.Inf(1)
	found := false
	for _, h := range holes {
		if h.Procs < procs {
			continue
		}
		s := maxTime(h.Start, est)
		if !timeLeq(s+duration, h.End) {
			continue
		}
		if !timeLeq(s+duration, deadline) {
			continue
		}
		if s < best {
			best = s
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// TestQuickHoleEngineMatchesProfileEngine: for random profiles and queries,
// the hole-based earliest fit agrees exactly with the segment-scan.
func TestQuickHoleEngineMatchesProfileEngine(t *testing.T) {
	f := func(seed int64, capRaw, nRaw, pRaw uint8, durRaw, estRaw, dlRaw uint16) bool {
		capacity := 1 + int(capRaw%8)
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng, capacity, int(nRaw%32))
		procs := 1 + int(pRaw)%capacity
		dur := 0.25 + float64(durRaw%300)/10
		est := float64(estRaw % 800)
		deadline := est + float64(dlRaw%1200)/2
		s1, ok1 := p.EarliestFit(procs, dur, est, deadline)
		s2, ok2 := p.earliestFitHoles(procs, dur, est, deadline)
		if ok1 != ok2 {
			t.Logf("profile=(%v,%v) holes=(%v,%v) query p=%d d=%v est=%v dl=%v\n%s",
				s1, ok1, s2, ok2, procs, dur, est, deadline, p)
			return false
		}
		if ok1 && !timeEq(s1, s2) {
			t.Logf("profile=%v holes=%v query p=%d d=%v est=%v dl=%v\n%s",
				s1, s2, procs, dur, est, deadline, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHolesAreValidAndMaximal: every enumerated hole is truly free and
// no hole is strictly contained in another.
func TestQuickHolesAreValidAndMaximal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng, 6, int(nRaw%40))
		holes := p.MaximalHoles(0)
		return p.validateHoles(holes, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEveryFreeSlotInSomeHole: any (start, duration, procs) slot that
// the profile reports as free is covered by at least one maximal hole.
func TestQuickEveryFreeSlotInSomeHole(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8, sRaw, dRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 6
		p := randomProfile(rng, capacity, int(nRaw%40))
		procs := 1 + int(pRaw)%capacity
		start := float64(sRaw % 500)
		dur := 0.5 + float64(dRaw%100)/4
		if p.MinAvailOn(start, start+dur) < procs {
			return true // not a free slot; nothing to check
		}
		for _, h := range p.MaximalHoles(0) {
			if h.Procs >= procs && timeLeq(h.Start, start) && timeLeq(start+dur, h.End) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// contains reports whether h fully contains g (g is redundant given h).
func (h Hole) contains(g Hole) bool {
	return timeLeq(h.Start, g.Start) && timeLeq(g.End, h.End) && g.Procs <= h.Procs
}

// validateHoles reports how the hole set is inconsistent with the profile.
func (p *Profile) validateHoles(holes []Hole, from float64) error {
	for _, h := range holes {
		if h.Procs < 1 {
			return fmt.Errorf("hole %+v: non-positive height", h)
		}
		end := h.End
		if math.IsInf(end, 1) {
			end = p.LastBreak() + 1
		}
		if got := p.MinAvailOn(maxTime(h.Start, from), end); got < h.Procs {
			return fmt.Errorf("hole %+v: profile has only %d free", h, got)
		}
	}
	for i, h := range holes {
		for j, g := range holes {
			if i != j && h.contains(g) && !(g.contains(h)) {
				return fmt.Errorf("hole %+v contained in %+v: not maximal", g, h)
			}
		}
	}
	return nil
}
