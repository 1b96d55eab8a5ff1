package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewProfileEmpty(t *testing.T) {
	p := NewProfile(4, 0)
	if got := p.capacity; got != 4 {
		t.Fatalf("capacity = %d, want 4", got)
	}
	if got := p.usedAt(0); got != 0 {
		t.Fatalf("UsedAt(0) = %d, want 0", got)
	}
	p.checkInvariants()
}

func TestNewProfilePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProfile(0, 0) did not panic")
		}
	}()
	NewProfile(0, 0)
}

func TestReserveBasic(t *testing.T) {
	p := NewProfile(4, 0)
	if err := p.Reserve(2, 1, 3); err != nil {
		t.Fatal(err)
	}
	p.checkInvariants()
	cases := []struct {
		at   float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 2}, {2, 2}, {2.999, 2}, {3, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := p.usedAt(c.at); got != c.want {
			t.Errorf("UsedAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestReserveStacksAndRejectsOverCapacity(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 2, 0, 10)
	mustReserve(t, p, 2, 5, 15)
	if err := p.Reserve(1, 6, 7); err == nil {
		t.Fatal("Reserve over full interval succeeded, want error")
	}
	p.checkInvariants()
	if got := p.usedAt(6); got != 4 {
		t.Fatalf("UsedAt(6) = %d, want 4 (failed reserve must not mutate)", got)
	}
	mustReserve(t, p, 4, 15, 16)
	p.checkInvariants()
}

func TestReserveRejectsDegenerateIntervals(t *testing.T) {
	p := NewProfile(2, 0)
	if err := p.Reserve(1, 5, 5); err == nil {
		t.Error("empty interval accepted")
	}
	if err := p.Reserve(1, 5, 4); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := p.Reserve(0, 1, 2); err == nil {
		t.Error("zero procs accepted")
	}
	if err := p.Reserve(1, -3, 2); err == nil {
		t.Error("pre-origin start accepted")
	}
	if err := p.Reserve(1, 0, math.Inf(1)); err == nil {
		t.Error("infinite reservation accepted")
	}
}

func TestMinAvailOn(t *testing.T) {
	p := NewProfile(8, 0)
	mustReserve(t, p, 3, 2, 6)
	mustReserve(t, p, 4, 4, 5)
	cases := []struct {
		a, b float64
		want int
	}{
		{0, 2, 8},
		{0, 3, 5},
		{2, 4, 5},
		{4, 5, 1},
		{0, 100, 1},
		{5, 6, 5},
		{6, 100, 8},
	}
	for _, c := range cases {
		if got := p.MinAvailOn(c.a, c.b); got != c.want {
			t.Errorf("MinAvailOn(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEarliestFitOnEmptyProfile(t *testing.T) {
	p := NewProfile(4, 0)
	s, ok := p.EarliestFit(4, 10, 0, inf)
	if !ok || !timeEq(s, 0) {
		t.Fatalf("EarliestFit = (%v, %v), want (0, true)", s, ok)
	}
	s, ok = p.EarliestFit(4, 10, 7.5, inf)
	if !ok || !timeEq(s, 7.5) {
		t.Fatalf("EarliestFit est=7.5 = (%v, %v), want (7.5, true)", s, ok)
	}
}

func TestEarliestFitSkipsBusyStretch(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 3, 0, 10)
	// Two procs only free from t=10.
	s, ok := p.EarliestFit(2, 5, 0, inf)
	if !ok || !timeEq(s, 10) {
		t.Fatalf("EarliestFit(2,5) = (%v, %v), want (10, true)", s, ok)
	}
	// One proc fits immediately.
	s, ok = p.EarliestFit(1, 5, 0, inf)
	if !ok || !timeEq(s, 0) {
		t.Fatalf("EarliestFit(1,5) = (%v, %v), want (0, true)", s, ok)
	}
}

func TestEarliestFitRespectsDeadline(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 3, 0, 10)
	if _, ok := p.EarliestFit(2, 5, 0, 14); ok {
		t.Fatal("EarliestFit met impossible deadline")
	}
	s, ok := p.EarliestFit(2, 5, 0, 15)
	if !ok || !timeEq(s, 10) {
		t.Fatalf("EarliestFit deadline=15 = (%v, %v), want (10, true)", s, ok)
	}
}

func TestEarliestFitNeedsGapWideEnough(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 4, 5, 10)
	mustReserve(t, p, 4, 12, 20)
	// Gap [10,12) is too short for duration 3; next fit is 20.
	s, ok := p.EarliestFit(1, 3, 0, inf)
	if !ok || !timeEq(s, 0) {
		t.Fatalf("EarliestFit = (%v,%v), want (0,true): leading gap [0,5) fits", s, ok)
	}
	s, ok = p.EarliestFit(1, 3, 4, inf)
	if !ok || !timeEq(s, 20) {
		t.Fatalf("EarliestFit est=4 = (%v,%v), want (20,true)", s, ok)
	}
	s, ok = p.EarliestFit(1, 2, 4, inf)
	if !ok || !timeEq(s, 10) {
		t.Fatalf("EarliestFit dur=2 est=4 = (%v,%v), want (10,true)", s, ok)
	}
}

func TestEarliestFitImpossibleRequests(t *testing.T) {
	p := NewProfile(4, 0)
	if _, ok := p.EarliestFit(5, 1, 0, inf); ok {
		t.Error("fit with procs > capacity")
	}
	if _, ok := p.EarliestFit(1, 0, 0, inf); ok {
		t.Error("fit with zero duration")
	}
	if _, ok := p.EarliestFit(1, 2, 5, 6); ok {
		t.Error("fit with est+duration > deadline")
	}
}

func TestEarliestFitStartsMidSegment(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 2, 0, 100)
	s, ok := p.EarliestFit(2, 5, 33.25, inf)
	if !ok || !timeEq(s, 33.25) {
		t.Fatalf("EarliestFit = (%v,%v), want (33.25,true)", s, ok)
	}
}

func TestTrimBeforePreservesQueriesAfterTrimPoint(t *testing.T) {
	p := NewProfile(8, 0)
	mustReserve(t, p, 3, 2, 6)
	mustReserve(t, p, 4, 4, 12)
	mustReserve(t, p, 2, 20, 30)
	q := p.clone()
	q.TrimBefore(5)
	q.checkInvariants()
	for _, at := range []float64{5, 6, 11, 12, 20, 25, 30, 31} {
		if p.usedAt(at) != q.usedAt(at) {
			t.Errorf("UsedAt(%v): trimmed %d != original %d", at, q.usedAt(at), p.usedAt(at))
		}
	}
	if got, want := q.BusyUpTo(100), p.BusyUpTo(100); !timeEq(got, want) {
		t.Errorf("BusyUpTo(100) after trim = %v, want %v", got, want)
	}
	sOrig, okOrig := p.EarliestFit(8, 3, 5, inf)
	sTrim, okTrim := q.EarliestFit(8, 3, 5, inf)
	if okOrig != okTrim || !timeEq(sOrig, sTrim) {
		t.Errorf("EarliestFit after trim = (%v,%v), want (%v,%v)", sTrim, okTrim, sOrig, okOrig)
	}
}

func TestTrimBeforeNoopForPast(t *testing.T) {
	p := NewProfile(4, 10)
	mustReserve(t, p, 1, 11, 12)
	segs := p.Segments()
	p.TrimBefore(5)
	if p.Segments() != segs || !timeEq(p.Origin(), 10) {
		t.Fatal("TrimBefore earlier than origin mutated profile")
	}
}

func TestBusyUpToAndBusyOn(t *testing.T) {
	p := NewProfile(4, 0)
	mustReserve(t, p, 2, 1, 3) // area 4
	mustReserve(t, p, 4, 5, 6) // area 4
	if got := p.BusyUpTo(10); !timeEq(got, 8) {
		t.Errorf("BusyUpTo(10) = %v, want 8", got)
	}
	if got := p.BusyUpTo(2); !timeEq(got, 2) {
		t.Errorf("BusyUpTo(2) = %v, want 2", got)
	}
	if got := p.BusyOn(0, 10); !timeEq(got, 8) {
		t.Errorf("BusyOn(0,10) = %v, want 8", got)
	}
	if got := p.BusyOn(2, 5.5); !timeEq(got, 4) {
		t.Errorf("BusyOn(2,5.5) = %v, want 4", got)
	}
	if got := p.BusyOn(7, 7); got != 0 {
		t.Errorf("BusyOn empty window = %v, want 0", got)
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile(2, 0)
	mustReserve(t, p, 1, 0, 5)
	want := "cap=2 [0,5)=1 [5,+inf)=0"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// randomProfile builds a profile from n random valid reservations.
// busyOnFromOrigin is BusyOn as it was before the binary-search start: the
// same terms, walking from segment 0.
func busyOnFromOrigin(p *Profile, a, b float64) float64 {
	if !timeLess(a, b) {
		return 0
	}
	var busy float64
	for i := 0; i < len(p.times); i++ {
		segEnd := inf
		if i < len(p.times)-1 {
			segEnd = p.times[i+1]
		}
		lo := maxTime(a, p.times[i])
		hi := minTime(b, segEnd)
		if timeLess(lo, hi) {
			busy += float64(p.used[i]) * (hi - lo)
		}
		if timeLeq(b, segEnd) {
			break
		}
	}
	return busy
}

// TestBusyOnSkipsToWindowExactly: starting the integration at the window's
// first segment must not change a bit of the sum, including for windows that
// start within Eps of a breakpoint on either side, before the origin or past
// the last break.
func TestBusyOnSkipsToWindowExactly(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		p := randomProfile(rng, 1+rng.Intn(12), 8+rng.Intn(56))
		p.TrimBefore(rng.Float64() * 30)
		check := func(a, b float64) {
			t.Helper()
			if got, want := p.BusyOn(a, b), busyOnFromOrigin(p, a, b); got != want {
				t.Fatalf("seed %d: BusyOn(%.17g, %.17g) = %.17g, from origin %.17g (%s)", seed, a, b, got, want, p)
			}
		}
		for trial := 0; trial < 300; trial++ {
			a := -5 + rng.Float64()*170
			check(a, a+rng.Float64()*60)
		}
		for _, at := range p.times {
			for _, da := range []float64{0, 4e-10, -4e-10, Eps, -Eps, 2 * Eps, -2 * Eps} {
				// ... and the few floats around each, where a+Eps rounds
				// onto, just below or just past the breakpoint.
				for a, ulps := math.Nextafter(at+da, -inf), 0; ulps < 3; a, ulps = math.Nextafter(a, inf), ulps+1 {
					for _, w := range []float64{Eps / 2, 2 * Eps, 0.5, 7, 500} {
						check(a, a+w)
					}
				}
			}
		}
	}
}

func randomProfile(rng *rand.Rand, capacity, n int) *Profile {
	p := NewProfile(capacity, 0)
	for i := 0; i < n; i++ {
		procs := 1 + rng.Intn(capacity)
		dur := 1 + rng.Float64()*20
		est := rng.Float64() * 100
		if s, ok := p.EarliestFit(procs, dur, est, inf); ok {
			if err := p.Reserve(procs, s, s+dur); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// TestBusyOnGuardSegment builds the case the guard segment in BusyOn exists
// for: a window starting a few floats below a power of two, with a
// breakpoint exactly at fl(a+Eps).  The sum a+Eps rounds in the coarser
// binade above, so seg(a) already is the segment after the breakpoint while
// timeLess still sees a sliver of the one before it — which therefore adds a
// term, as it always has.
func TestBusyOnGuardSegment(t *testing.T) {
	slivers := 0
	for _, pow := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
		a := pow
		for ulps := 0; ulps < 8; ulps++ {
			a = math.Nextafter(a, -inf)
			p := NewProfile(4, 0)
			mustReserve(t, p, 3, pow/2, a+Eps)
			mustReserve(t, p, 1, a+Eps, pow+10)
			got, want := p.BusyOn(a, pow+5), busyOnFromOrigin(p, a, pow+5)
			if got != want {
				t.Fatalf("BusyOn(%.17g, %v) = %.17g, from origin %.17g (%s)", a, pow+5, got, want, p)
			}
			if p.seg(a) == 2 && timeLess(a, p.times[2]) {
				slivers++ // segment 1 adds a term although a is in segment 2
			}
		}
	}
	if slivers == 0 {
		t.Fatal("no window exercised the guard segment")
	}
}

// TestQuickReserveNeverExceedsCapacity: after arbitrary reservation
// sequences placed via EarliestFit, usage never exceeds capacity and the
// profile invariants hold.
func TestQuickReserveNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capRaw uint8, nRaw uint8) bool {
		capacity := 1 + int(capRaw%16)
		n := int(nRaw % 64)
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng, capacity, n)
		p.checkInvariants()
		for at := 0.0; at < 200; at += 3.7 {
			if p.usedAt(at) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEarliestFitIsEarliest: the returned slot fits, and no earlier
// slot (sampled on a fine grid) fits.
func TestQuickEarliestFitIsEarliest(t *testing.T) {
	f := func(seed int64, capRaw, nRaw, pRaw uint8, durRaw uint16) bool {
		capacity := 1 + int(capRaw%8)
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng, capacity, int(nRaw%32))
		procs := 1 + int(pRaw)%capacity
		dur := 0.5 + float64(durRaw%200)/10
		est := rng.Float64() * 50
		s, ok := p.EarliestFit(procs, dur, est, inf)
		if !ok {
			return false // with infinite deadline a fit always exists
		}
		if timeLess(s, est) {
			return false
		}
		if p.MinAvailOn(s, s+dur) < procs {
			return false
		}
		// No earlier grid point fits.
		for cand := est; timeLess(cand, s); cand += dur / 16 {
			if p.MinAvailOn(cand, cand+dur) >= procs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTrimPreservesSemantics: trimming at a random point preserves all
// queries at or after the trim point and the total busy integral.
func TestQuickTrimPreservesSemantics(t *testing.T) {
	f := func(seed int64, nRaw uint8, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng, 8, int(nRaw%48))
		q := p.clone()
		at := float64(cut) / 2
		q.TrimBefore(at)
		q.checkInvariants()
		if !timeEq(q.BusyUpTo(1e6), p.BusyUpTo(1e6)) {
			return false
		}
		for probe := at; probe < at+100; probe += 1.3 {
			if p.usedAt(probe) != q.usedAt(probe) {
				return false
			}
		}
		s1, ok1 := p.EarliestFit(3, 4, at, inf)
		s2, ok2 := q.EarliestFit(3, 4, at, inf)
		return ok1 == ok2 && timeEq(s1, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mustReserve(t *testing.T, p *Profile, procs int, start, finish float64) {
	t.Helper()
	if err := p.Reserve(procs, start, finish); err != nil {
		t.Fatalf("Reserve(%d, %v, %v): %v", procs, start, finish, err)
	}
}
