package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Profile is the scheduler's view of committed capacity over time: a
// piecewise-constant "used processors" function on [origin, +inf).  Segment i
// covers [times[i], times[i+1]) (the last segment extends to +inf) and uses
// used[i] processors.  Because every reservation is finite, the final segment
// always has zero usage.
//
// The profile only ever grows at reservation boundaries; history strictly
// before the simulation clock can be folded away with TrimBefore, which
// preserves the integral of usage (for utilization accounting) while keeping
// the segment list short in long runs.
type Profile struct {
	capacity int
	times    []float64
	used     []int

	// tbuf and ubuf are the backing arrays (equal lengths); times and used
	// are views of their slots [head, head+n).  TrimBefore retires segments
	// by advancing head, ensureBreak takes the next free slot at the tail,
	// and reslot moves the live segments back to slot 0 when the tail slots
	// run out — so neither an Observe nor a Reserve copies the whole profile.
	tbuf []float64
	ubuf []int
	head int

	trimmedBusy float64 // processor-time integral folded away by TrimBefore

	// idx, when non-nil, is the segment-tree index over availability (see
	// index.go), laid over the same slots.  Queries dispatch through it;
	// mutations maintain it incrementally, and only reslot, SetCapacity,
	// Clone and restore leave it to be rebuilt.
	idx *profIndex
}

// NewProfile returns an empty profile for capacity processors starting at
// time origin.
func NewProfile(capacity int, origin float64) *Profile {
	if capacity < 1 {
		panic(fmt.Sprintf("core: profile capacity %d must be >= 1", capacity))
	}
	return newProfile(capacity, []float64{origin}, []int{0}, 0)
}

// newProfile builds an unindexed profile that owns the given segment arrays,
// with every slot live.
func newProfile(capacity int, times []float64, used []int, trimmedBusy float64) *Profile {
	return &Profile{
		capacity:    capacity,
		times:       times,
		used:        used,
		tbuf:        times,
		ubuf:        used,
		trimmedBusy: trimmedBusy,
	}
}

// Origin returns the earliest time the profile still represents explicitly.
func (p *Profile) Origin() float64 { return p.times[0] }

// Segments returns the number of explicit segments (for tests and stats).
func (p *Profile) Segments() int { return len(p.times) }

// clone returns a deep copy of the profile.  A clone of an indexed profile
// is itself indexed (with a fresh, lazily built tree and zeroed counters).
func (p *Profile) clone() *Profile {
	q := newProfile(p.capacity, append([]float64(nil), p.times...), append([]int(nil), p.used...), p.trimmedBusy)
	if p.idx != nil {
		q.EnableIndex()
	}
	return q
}

// seg returns the index of the segment containing time t, clamping to the
// first segment for t before the origin.
func (p *Profile) seg(t float64) int {
	// Largest i with times[i] <= t (within tolerance).
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t+Eps })
	if i == 0 {
		return 0
	}
	return i - 1
}

// usedAt returns the number of processors in use at time t.
func (p *Profile) usedAt(t float64) int { return p.used[p.seg(t)] }

// MinAvailOn returns the minimum number of free processors over [a, b).
func (p *Profile) MinAvailOn(a, b float64) int {
	if p.idx != nil {
		return p.minAvailOnIndexed(a, b)
	}
	return p.minAvailOnLinear(a, b)
}

// minAvailOnLinear is the reference O(n) implementation of MinAvailOn: a
// straight scan over the segments intersecting [a, b).  It is retained as
// the oracle for the indexed path (see oracle_test.go).
func (p *Profile) minAvailOnLinear(a, b float64) int {
	if !timeLess(a, b) {
		return p.capacity - p.usedAt(a)
	}
	lo := p.seg(a)
	min := p.capacity
	for i := lo; i < len(p.times); i++ {
		if timeLeq(b, p.times[i]) && i > lo {
			break
		}
		if avail := p.capacity - p.used[i]; avail < min {
			min = avail
		}
		if i == len(p.times)-1 {
			break
		}
	}
	return min
}

// ensureBreak inserts a breakpoint at time t (if one is not already present
// within tolerance) and returns the index of the segment starting at t.
// Times before the origin are clamped to the origin.
//
// Epsilon dedup: a new break is never inserted within Eps (1e-9) of an
// existing one — the reservation boundary snaps to the existing break
// instead (dedupBreak).  Without this, long churn runs whose reservation
// boundaries are recomputed through drifting float arithmetic would
// accumulate near-duplicate breakpoints, inflating segment counts (and
// hence every probe's cost) without changing the profile's shape beyond
// tolerance.  The dedup also upholds the structural invariant that
// consecutive breakpoints are separated by more than Eps, which seg() and
// the segment-tree index both rely on.
func (p *Profile) ensureBreak(t float64) int {
	if timeLeq(t, p.times[0]) {
		return 0
	}
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t+Eps })
	// i is the first index with times[i] > t+Eps, so times[i-1] is the
	// nearest break at or left of t's tolerance band; times[i] is more
	// than Eps away by construction.  Snap to times[i-1] when it is within
	// the dedup threshold.
	if dedupBreak(p.times[i-1], t) {
		return i - 1
	}
	n := len(p.times)
	if p.head+n == len(p.tbuf) {
		p.reslot()
	}
	// Segments [i, n) move one slot toward the tail; the new segment i
	// inherits the usage of the segment it splits.
	p.times = p.tbuf[p.head : p.head+n+1]
	p.used = p.ubuf[p.head : p.head+n+1]
	copy(p.times[i+1:], p.times[i:n])
	copy(p.used[i+1:], p.used[i:n])
	p.times[i] = t
	p.used[i] = p.used[i-1]
	if x := p.idx; x != nil && !x.dirty {
		x.insertLeaf(i)
	}
	return i
}

// reslot frees tail slots when the live segments have reached the end of the
// backing arrays: the segments move back to slot 0, in place when that leaves
// at least as many free slots as live segments and into arrays of at least
// twice the size otherwise.  Either way at least n insertions pass before the
// next reslot, so its O(n) cost — and that of the index rebuild it forces — is
// amortised O(1) per insertion.
func (p *Profile) reslot() {
	n := len(p.times)
	if c := len(p.tbuf); 2*(n+1) > c {
		c = max(2*(n+1), 2*c)
		p.tbuf = make([]float64, c)
		p.ubuf = make([]int, c)
	}
	copy(p.tbuf, p.times)
	copy(p.ubuf, p.used)
	p.head = 0
	p.times = p.tbuf[:n]
	p.used = p.ubuf[:n]
	p.markIndexDirty()
}

// Reserve commits procs processors over [start, finish).  It returns an
// error (leaving the profile unchanged) if the reservation would exceed
// capacity anywhere in the interval, or if the interval is empty or not
// entirely at or after the profile origin.
func (p *Profile) Reserve(procs int, start, finish float64) error {
	if procs < 1 {
		return fmt.Errorf("core: reserve %d procs (must be >= 1)", procs)
	}
	if !timeLess(start, finish) {
		return fmt.Errorf("core: reserve over empty interval [%v, %v)", start, finish)
	}
	if math.IsInf(finish, 1) {
		return fmt.Errorf("core: reserve with infinite finish")
	}
	if timeLess(start, p.times[0]) {
		return fmt.Errorf("core: reserve starting at %v before profile origin %v", start, p.times[0])
	}
	if p.MinAvailOn(start, finish) < procs {
		return fmt.Errorf("core: reserve %d procs over [%v, %v): insufficient capacity", procs, start, finish)
	}
	lo := p.ensureBreak(start)
	hi := p.ensureBreak(finish)
	for i := lo; i < hi; i++ {
		p.used[i] += procs
	}
	if x := p.idx; x != nil && !x.dirty {
		x.refreshLeaves(p, lo, hi)
	}
	return nil
}

// EarliestFit returns the earliest start time s >= est such that procs
// processors are free throughout [s, s+duration) and s+duration <= deadline.
// The second result is false if no such start exists.
func (p *Profile) EarliestFit(procs int, duration, est, deadline float64) (float64, bool) {
	if p.idx != nil {
		return p.earliestFitIndexed(procs, duration, est, deadline)
	}
	return p.earliestFitLinear(procs, duration, est, deadline)
}

// earliestFitLinear is the reference O(n) implementation of EarliestFit: a
// forward scan that restarts after every blocking segment.  It is retained
// as the oracle for the indexed path.
func (p *Profile) earliestFitLinear(procs int, duration, est, deadline float64) (float64, bool) {
	if procs > p.capacity || duration <= 0 {
		return 0, false
	}
	s := maxTime(est, p.times[0])
	if !timeLeq(s+duration, deadline) {
		return 0, false
	}
	i := p.seg(s)
	for {
		// Advance i to the first segment at or containing s.
		for i < len(p.times)-1 && timeLeq(p.times[i+1], s) {
			i++
		}
		// Scan forward from s checking availability until duration covered.
		j := i
		ok := true
		for {
			if p.capacity-p.used[j] < procs {
				ok = false
				break
			}
			if j == len(p.times)-1 || timeLeq(s+duration, p.times[j+1]) {
				break // interval fully covered by available segments
			}
			j++
		}
		if ok {
			return s, true
		}
		// Segment j blocks: restart just after it.
		if j == len(p.times)-1 {
			return 0, false // final (infinite) segment blocks; cannot happen in practice
		}
		s = p.times[j+1]
		i = j + 1
		if !timeLeq(s+duration, deadline) {
			return 0, false
		}
	}
}

// TrimBefore discards all profile structure strictly before time t, folding
// the discarded usage integral into the trimmed-busy accumulator.  The
// profile origin becomes t.  Trimming never changes the result of any query
// at or after t.
func (p *Profile) TrimBefore(t float64) {
	if timeLeq(t, p.times[0]) {
		return
	}
	i := p.seg(t)
	// Fold fully-covered segments [0, i).
	for k := 0; k < i; k++ {
		p.trimmedBusy += float64(p.used[k]) * (p.times[k+1] - p.times[k])
	}
	// Fold the covered prefix of segment i.
	p.trimmedBusy += float64(p.used[i]) * (t - p.times[i])
	if i > 0 {
		// Retire slots [head, head+i); reslot reclaims them later.
		p.head += i
		p.times = p.times[i:]
		p.used = p.used[i:]
		if x := p.idx; x != nil && !x.dirty {
			x.retireLeaves(i)
		}
	}
	p.times[0] = t
}

// BusyUpTo returns the usage integral (processor-time units reserved) from
// the beginning of the profile's history up to time t, including any history
// folded away by TrimBefore.
func (p *Profile) BusyUpTo(t float64) float64 {
	busy := p.trimmedBusy
	for i := 0; i < len(p.times); i++ {
		if timeLeq(t, p.times[i]) {
			break
		}
		end := t
		if i < len(p.times)-1 {
			end = minTime(end, p.times[i+1])
		}
		busy += float64(p.used[i]) * (end - p.times[i])
	}
	return busy
}

// BusyOn returns the usage integral over the window [a, b), using only the
// explicitly represented portion of the profile (a must be at or after the
// origin for an exact answer).
func (p *Profile) BusyOn(a, b float64) float64 {
	if !timeLess(a, b) {
		return 0
	}
	// Start one segment before the one containing a: every earlier segment
	// ends at or before a (breakpoints are more than Eps apart), so it would
	// add no term.  The guard segment is for seg's own rounding: it compares
	// against fl(a+Eps), which can round up far enough that timeLess still
	// sees a sliver of the segment before seg(a) inside the window
	// (TestBusyOnGuardSegment).
	i := p.seg(a)
	if i > 0 {
		i--
	}
	var busy float64
	for ; i < len(p.times); i++ {
		segStart := p.times[i]
		segEnd := inf
		if i < len(p.times)-1 {
			segEnd = p.times[i+1]
		}
		lo := maxTime(a, segStart)
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

// peakUsed returns the maximum number of processors committed at any time
// still explicitly represented by the profile (i.e. at or after the origin).
// It is the floor below which the machine cannot shrink without preempting
// reservations.
func (p *Profile) peakUsed() int {
	peak := 0
	for _, u := range p.used {
		if u > peak {
			peak = u
		}
	}
	return peak
}

// SetCapacity resizes the machine to c processors.  Growth always succeeds;
// shrinking succeeds only when the new capacity still covers every committed
// reservation (peakUsed) — reservations are never preempted, so an
// arbitrator may only give away uncommitted headroom.  The usage integral
// and all committed reservations are unchanged; availability queries answer
// against the new capacity from now on.
func (p *Profile) SetCapacity(c int) error {
	if c < 1 {
		return fmt.Errorf("core: set capacity %d (must be >= 1)", c)
	}
	if c == p.capacity {
		return nil
	}
	if peak := p.peakUsed(); c < peak {
		return fmt.Errorf("core: set capacity %d below committed peak usage %d", c, peak)
	}
	p.capacity = c
	// Every index leaf stores availability (capacity - used), so a capacity
	// change invalidates the whole tree; rebuild lazily on the next query.
	p.markIndexDirty()
	return nil
}

// LastBreak returns the time of the profile's final breakpoint: the earliest
// time after which the machine is entirely idle forever.
func (p *Profile) LastBreak() float64 { return p.times[len(p.times)-1] }

// String renders the profile for debugging: "cap=4 [0,5)=2 [5,+inf)=0".
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cap=%d", p.capacity)
	for i := range p.times {
		end := "+inf"
		if i < len(p.times)-1 {
			end = fmt.Sprintf("%g", p.times[i+1])
		}
		fmt.Fprintf(&b, " [%g,%s)=%d", p.times[i], end, p.used[i])
	}
	return b.String()
}

// CheckInvariants verifies the profile's structural invariants: matching
// slice lengths, strictly increasing breakpoints separated by more than Eps
// (the epsilon-dedup guarantee), usage within [0, capacity], an idle final
// segment, and — when a segment-tree index is attached and clean — exact
// agreement between the tree's leaves/nodes and the segment data.  It is
// exported for the differential test harness (internal/core/proftest).
func (p *Profile) CheckInvariants() error {
	if len(p.times) != len(p.used) {
		return fmt.Errorf("core: profile times/used length mismatch")
	}
	if len(p.times) == 0 {
		return fmt.Errorf("core: empty profile")
	}
	for i := 1; i < len(p.times); i++ {
		if !timeLess(p.times[i-1], p.times[i]) {
			return fmt.Errorf("core: profile breakpoints not increasing (or within Eps): %v", p.times)
		}
	}
	for i, u := range p.used {
		if u < 0 || u > p.capacity {
			return fmt.Errorf("core: profile usage %d out of [0,%d] at segment %d", u, p.capacity, i)
		}
	}
	if p.used[len(p.used)-1] != 0 {
		return fmt.Errorf("core: profile final segment must be idle")
	}
	return p.checkIndex()
}
