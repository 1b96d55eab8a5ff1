package core

import (
	"math"
	"math/rand"
	"testing"
)

// brute-force helpers against which the tree walks are checked.

func bruteFirstBelow(p *Profile, from, k int) int {
	for i := from; i < len(p.used); i++ {
		if p.capacity-p.used[i] < k {
			return i
		}
	}
	return len(p.used)
}

func bruteFirstAtLeast(p *Profile, from, k int) int {
	for i := from; i < len(p.used); i++ {
		if p.capacity-p.used[i] >= k {
			return i
		}
	}
	return len(p.used)
}

func bruteLastBelow(p *Profile, upTo, k int) int {
	if upTo >= len(p.used) {
		upTo = len(p.used) - 1
	}
	for i := upTo; i >= 0; i-- {
		if p.capacity-p.used[i] < k {
			return i
		}
	}
	return -1
}

func bruteRangeMin(p *Profile, l, r int) int {
	min := p.capacity
	for i := l; i <= r; i++ {
		if a := p.capacity - p.used[i]; a < min {
			min = a
		}
	}
	return min
}

// TestIndexDescentsMatchBruteForce checks every tree primitive against the
// straight scan on randomized profiles of many shapes and sizes.
func TestIndexDescentsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		p := randomProfile(rng, capacity, rng.Intn(64))
		p.EnableIndex()
		x := p.idxEnsure()
		if seed%2 == 1 {
			// Walk the tree with a head offset and shifted leaves too.
			p.TrimBefore(rng.Float64() * 60)
			for i := 0; i < 4; i++ {
				if s, ok := p.EarliestFit(1, 0.5+rng.Float64(), p.Origin()+rng.Float64()*80, inf); ok {
					mustReserve(t, p, 1, s, s+0.25)
				}
			}
			x = p.idxEnsure()
		}
		n := len(p.used)
		for trial := 0; trial < 200; trial++ {
			from := rng.Intn(n + 2)
			k := rng.Intn(capacity + 2)
			if got, want := x.firstBelow(from, k), bruteFirstBelow(p, from, k); got != want {
				t.Fatalf("seed %d: firstBelow(%d,%d) = %d, want %d (%s)", seed, from, k, got, want, p)
			}
			if got, want := x.firstAtLeast(from, k), bruteFirstAtLeast(p, from, k); got != want {
				t.Fatalf("seed %d: firstAtLeast(%d,%d) = %d, want %d (%s)", seed, from, k, got, want, p)
			}
			if got, want := x.lastBelow(from, k), bruteLastBelow(p, from, k); got != want {
				t.Fatalf("seed %d: lastBelow(%d,%d) = %d, want %d (%s)", seed, from, k, got, want, p)
			}
			l := rng.Intn(n)
			r := l + rng.Intn(n-l)
			if got, want := x.rangeMin(l, r), bruteRangeMin(p, l, r); got != want {
				t.Fatalf("seed %d: rangeMin(%d,%d) = %d, want %d (%s)", seed, l, r, got, want, p)
			}
		}
	}
}

// TestIndexIncrementalLeafUpdates: once built, the tree follows every
// profile mutation in place — an aligned Reserve, a Reserve that inserts
// breakpoints and a TrimBefore all leave it clean, consistent and not
// rebuilt.  Only running out of tail slots (and SetCapacity) rebuilds.
func TestIndexIncrementalLeafUpdates(t *testing.T) {
	p := NewProfile(8, 0)
	p.EnableIndex()
	mustReserve(t, p, 2, 10, 20)
	mustReserve(t, p, 2, 20, 30)
	mustReserve(t, p, 1, 40, 50) // 6 segments: the next reslot is at 14
	_ = p.MinAvailOn(0, 40)      // force a build
	st, updates := p.IndexStats(), p.idx.leafUpdates
	if st.Rebuilds == 0 {
		t.Fatal("no rebuild after first query")
	}
	clean := func(what string) {
		t.Helper()
		if p.idx.dirty {
			t.Fatalf("%s dirtied the index", what)
		}
		if got := p.IndexStats().Rebuilds; got != st.Rebuilds {
			t.Fatalf("%s triggered a rebuild (%d -> %d)", what, st.Rebuilds, got)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	// Boundaries 10 and 30 both exist: leaves rewritten in place.
	mustReserve(t, p, 3, 10, 30)
	clean("aligned reserve")
	if got := p.idx.leafUpdates; got == updates {
		t.Fatal("aligned reserve did not refresh any leaves")
	}
	if got := p.MinAvailOn(10, 30); got != 3 {
		t.Fatalf("MinAvailOn(10,30) = %d, want 3", got)
	}
	// A misaligned reserve inserts two breakpoints by shifting the tail.
	mustReserve(t, p, 1, 12, 18)
	clean("breakpoint insertion")
	if got := p.MinAvailOn(12, 18); got != 2 {
		t.Fatalf("MinAvailOn(12,18) = %d, want 2", got)
	}
	// A trim that drops segments advances the head and retires their leaves.
	head := p.head
	p.TrimBefore(15)
	clean("trim")
	if p.head == head {
		t.Fatal("trim past a breakpoint did not advance the head")
	}
	if got := p.MinAvailOn(15, 18); got != 2 {
		t.Fatalf("MinAvailOn(15,18) after trim = %d, want 2", got)
	}
	// A trim inside the first segment moves only the origin.
	updates = p.idx.leafUpdates
	p.TrimBefore(16)
	clean("origin-only trim")
	if got := p.idx.leafUpdates; got != updates {
		t.Fatalf("origin-only trim touched %d leaves", got-updates)
	}
	// Insertions past the last free slot reslot the profile and rebuild.
	for i := 0; p.IndexStats().Rebuilds == st.Rebuilds; i++ {
		if i > 2*len(p.tbuf) {
			t.Fatal("index never rebuilt although the slots ran out")
		}
		mustReserve(t, p, 1, 60+float64(i), 60.5+float64(i))
		_ = p.MinAvailOn(0, 100)
	}
	// The reslot left at least as many free slots as segments; the reserve
	// that caused it has since used at most two of them.
	if p.head != 0 || len(p.tbuf) < 2*(len(p.used)-2) {
		t.Fatalf("reslot left head %d, %d slots for %d segments", p.head, len(p.tbuf), len(p.used))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIndexCatchesStaleRetiredLeaf: a slot outside the live range that
// does not hold full capacity is an invariant violation, even though no
// query over the live range reads it today.
func TestCheckIndexCatchesStaleRetiredLeaf(t *testing.T) {
	p := NewProfile(4, 0)
	p.EnableIndex()
	for i := 0; i < 6; i++ {
		mustReserve(t, p, 1, float64(10*i+5), float64(10*i+10))
	}
	_ = p.MinAvailOn(0, 100)
	p.TrimBefore(32)
	if p.head == 0 || p.idx.dirty {
		t.Fatalf("setup: head %d, dirty %v", p.head, p.idx.dirty)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	x := p.idx
	x.minA[x.size] = 0 // retired leaf 0
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("a retired leaf below full capacity passed CheckInvariants")
	}
}

// TestIndexSameProfileAgreesWithLinear compares the indexed and linear
// query paths on the *same* profile instance (not just replayed twins):
// every probe of a randomized profile must agree exactly.
func TestIndexSameProfileAgreesWithLinear(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		capacity := 1 + rng.Intn(12)
		p := randomProfile(rng, capacity, 48)
		p.EnableIndex()
		for trial := 0; trial < 150; trial++ {
			a := rng.Float64() * 180
			b := a + rng.Float64()*40
			if got, want := p.minAvailOnIndexed(a, b), p.minAvailOnLinear(a, b); got != want {
				t.Fatalf("seed %d: MinAvailOn(%v,%v) indexed %d, linear %d", seed, a, b, got, want)
			}
			procs := 1 + rng.Intn(capacity)
			dur := 0.2 + rng.Float64()*15
			deadline := a + dur + rng.Float64()*80
			if trial%3 == 0 {
				deadline = math.Inf(1)
			}
			si, oki := p.earliestFitIndexed(procs, dur, a, deadline)
			sl, okl := p.earliestFitLinear(procs, dur, a, deadline)
			if oki != okl || si != sl {
				t.Fatalf("seed %d: EarliestFit(%d,%v,%v,%v) indexed (%v,%v), linear (%v,%v)",
					seed, procs, dur, a, deadline, si, oki, sl, okl)
			}
			if trial%10 == 0 {
				hi := p.maximalHolesIndexed(a)
				hl := p.maximalHolesLinear(a)
				if len(hi) != len(hl) {
					t.Fatalf("seed %d: holes count %d vs %d", seed, len(hi), len(hl))
				}
				for i := range hi {
					if hi[i] != hl[i] && !(math.IsInf(hi[i].End, 1) && math.IsInf(hl[i].End, 1) &&
						hi[i].Start == hl[i].Start && hi[i].Procs == hl[i].Procs) {
						t.Fatalf("seed %d: hole %d: %+v vs %+v", seed, i, hi[i], hl[i])
					}
				}
				if err := p.validateHoles(hi, a); err != nil {
					t.Fatalf("seed %d: indexed holes invalid: %v", seed, err)
				}
			}
		}
	}
}

// TestIndexCloneStartsFresh: cloning an indexed profile keeps indexing
// enabled but with a lazily rebuilt tree and zeroed counters, and the
// clone answers queries identically.
func TestIndexCloneStartsFresh(t *testing.T) {
	p := NewProfile(4, 0)
	p.EnableIndex()
	mustReserve(t, p, 2, 1, 5)
	_ = p.MinAvailOn(0, 10)
	q := p.clone()
	if !q.IndexEnabled() {
		t.Fatal("clone of indexed profile lost its index")
	}
	if st := q.IndexStats(); st.Rebuilds != 0 {
		t.Fatalf("clone inherited counters: %+v", st)
	}
	if got, want := q.MinAvailOn(1, 5), p.MinAvailOn(1, 5); got != want {
		t.Fatalf("clone MinAvailOn = %d, want %d", got, want)
	}
	// Mutating the clone must not touch the parent's tree.
	mustReserve(t, q, 2, 1, 5)
	if got := p.MinAvailOn(1, 5); got != 2 {
		t.Fatalf("parent MinAvailOn changed to %d after clone mutation", got)
	}
}

// TestEnsureBreakEpsilonDedup is the regression test for the breakpoint
// epsilon-dedup: reservation boundaries recomputed with sub-tolerance float
// drift must snap to existing breakpoints instead of inserting
// near-duplicate breaks.  Without the dedup a long churn run accumulates
// one sliver segment per drifted boundary, inflating every later probe.
func TestEnsureBreakEpsilonDedup(t *testing.T) {
	p := NewProfile(16, 0)
	// 1000 reservations over the same [10, 20) window, each boundary
	// drifted by a fresh sub-Eps offset.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		start := 10 + (rng.Float64()*2-1)*4e-10
		finish := 20 + (rng.Float64()*2-1)*4e-10
		if err := p.Reserve(1, start, finish); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if p.usedAt(15) != i+1 {
			t.Fatalf("reserve %d: UsedAt(15) = %d, want %d", i, p.usedAt(15), i+1)
		}
		if i >= 15 {
			break // capacity is 16; stop before the window fills
		}
	}
	if got := p.Segments(); got != 3 {
		t.Fatalf("drifting boundaries inflated segments to %d, want 3 (%s)", got, p)
	}
	p.checkInvariants()
	// No two breakpoints may ever be within Eps of each other.
	for i := 1; i < len(p.times); i++ {
		if p.times[i]-p.times[i-1] <= Eps {
			t.Fatalf("breakpoints %v and %v closer than Eps", p.times[i-1], p.times[i])
		}
	}
}

// TestEnsureBreakDedupUnderChurn drives a trim-and-reserve churn loop whose
// boundary arithmetic accumulates float error (repeated addition of an
// irrational step) and checks the segment count stays proportional to the
// number of *live* reservations, not the total history.
func TestEnsureBreakDedupUnderChurn(t *testing.T) {
	p := NewProfile(8, 0)
	step := 1.0 / 3.0
	clock := 0.0
	maxSegs := 0
	for i := 0; i < 5000; i++ {
		clock += step
		// Reserve a window [clock, clock+6*step) — boundaries reuse the
		// drifting accumulator, so later windows re-derive "the same"
		// times through different float paths.  One arrival per step of
		// duration 6*step is offered load 6 < capacity 8, so the *live*
		// reservation set stays bounded; only dedup failure can make the
		// segment count grow with history.
		if s, ok := p.EarliestFit(1, 6*step, clock, inf); ok {
			if err := p.Reserve(1, s, s+6*step); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
		p.TrimBefore(clock)
		if segs := p.Segments(); segs > maxSegs {
			maxSegs = segs
		}
	}
	p.checkInvariants()
	// At most ~6-8 concurrent reservations of length 2 over a window that
	// advances 1/3 per iteration: live structure is tens of segments.  A
	// dedup regression shows up as hundreds to thousands.
	if maxSegs > 64 {
		t.Fatalf("segment count peaked at %d under churn, want <= 64", maxSegs)
	}
}

// TestIndexStatsAccounting: the exported counters move as documented.
func TestIndexStatsAccounting(t *testing.T) {
	p := NewProfile(8, 0)
	if st := p.IndexStats(); st.Enabled {
		t.Fatal("index reported enabled before EnableIndex")
	}
	p.EnableIndex()
	st := p.IndexStats()
	if !st.Enabled || st.Rebuilds != 0 {
		t.Fatalf("fresh index stats = %+v", st)
	}
	mustReserve(t, p, 1, 0, 10)
	_, _ = p.EarliestFit(4, 2, 0, inf)
	st = p.IndexStats()
	if st.Rebuilds == 0 || st.Descents == 0 || st.DescentSteps < st.Descents {
		t.Fatalf("index did not count its work: %+v", st)
	}
	// Scheduler-level accessor.
	s := NewScheduler(8, 0, nil)
	if !s.Profile().IndexEnabled() {
		t.Fatal("NewScheduler(nil opts) did not enable the index by default")
	}
	if _, err := s.Admit(Job{ID: 1, Release: 0, Chains: []Chain{{Quality: 1,
		Tasks: []Task{{Procs: 2, Duration: 3, Deadline: 10}}}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.IndexStats(); !st.Enabled || st.Rebuilds == 0 {
		t.Fatalf("scheduler index stats = %+v", st)
	}
	off := NewScheduler(8, 0, &Options{ProfileIndex: ProfileIndexOff})
	if off.Profile().IndexEnabled() {
		t.Fatal("ProfileIndexOff still attached an index")
	}
}
