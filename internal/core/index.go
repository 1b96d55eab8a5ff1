package core

import (
	"fmt"
	"sort"
)

// This file implements the indexed processor-time profile: an incrementally
// maintained segment tree over the piecewise-constant availability function
// of a Profile.  The tree stores, per node, the minimum and maximum
// availability over its span of profile segments, which turns the scheduler's
// three probe primitives into tree walks:
//
//	MinAvailOn    — one range-min query, O(log n)
//	EarliestFit   — "first segment >= i with avail >= k" (max-descent) and
//	                "first segment >= i with avail < k" (min-descent),
//	                O(log n) per blocked stretch skipped instead of O(1) per
//	                segment scanned
//	MaximalHoles  — left/right extension of each candidate rectangle by
//	                backward/forward descents, O(n log n) total instead of
//	                O(n^2)
//
// The leaves are laid over the profile's physical slots (Profile.tbuf), not
// over its segment numbers: segment i lives in leaf head+i, and every leaf
// outside [head, head+n) holds full capacity, which no search can prefer to
// a live leaf (the final live segment is always idle).  That makes every
// profile mutation a local edit of the tree:
//
//	Reserve on existing breaks  — rewrite the covered leaves and re-pull
//	                              their ancestors, O(k + log n)
//	breakpoint insertion        — shift the leaves from the insertion point
//	                              to the tail by one slot and re-pull the
//	                              ancestors of the shifted range,
//	                              O(log n + distance to tail); online
//	                              arrivals insert near the tail
//	TrimBefore                  — advance head, reset the retired leaves to
//	                              full capacity, O(k + log n); nothing when
//	                              no segment is dropped
//
// A full O(slots) rebuild is left for the cases that move or revalue every
// leaf: the profile ran out of tail slots and moved its segments back to slot
// 0 (Profile.reslot — at least n insertions apart, so amortised O(1)),
// SetCapacity, and a freshly cloned or restored profile.  It is lazy: those
// paths mark the tree dirty and the next query rebuilds it.
//
// Every indexed query is written to be *exactly* equivalent to the linear
// reference implementation, including the Eps-tolerant boundary predicates
// (the same timeLeq/seg expressions are used on both paths), so that the
// differential oracle harness can assert bitwise-equal answers.  No answer
// depends on head, so none depends on the trim history.

// IndexStats reports the work done by a profile's segment-tree index.
// Counters are cumulative since EnableIndex (clones start fresh).
type IndexStats struct {
	// Enabled reports whether the profile carries an index at all.
	Enabled bool
	// Rebuilds counts full tree rebuilds (first query, reslot, SetCapacity).
	Rebuilds int64
	// Descents counts tree walks (first-below / first-at-least /
	// last-below searches).
	Descents int64
	// DescentSteps counts nodes visited across all descents; divided by
	// Descents it is the mean probe depth.
	DescentSteps int64
}

// profIndex is the segment tree.  Nodes are stored 1-based in flat arrays of
// length 2*size, with leaves at [size, 2*size): leaf j mirrors profile slot
// j, the live segments occupy leaves [head, head+n), and every other leaf
// holds full availability.  The query methods take segment numbers (leaf
// minus head), so callers never see the offset.
type profIndex struct {
	size  int // leaf count, a power of two >= the profile's slot count
	head  int // leaf of segment 0 (= Profile.head while clean)
	n     int // live leaves (= number of profile segments while clean)
	full  int // availability of an idle leaf (= Profile.capacity while clean)
	minA  []int
	maxA  []int
	dirty bool
	stats IndexStats
	// leafUpdates counts incrementally rewritten leaves: reserved segments,
	// leaves shifted by a breakpoint insertion and leaves retired by a trim.
	leafUpdates int64
}

// EnableIndex attaches a segment-tree index to the profile.  All probe
// queries (MinAvailOn, EarliestFit, MaximalHoles and the hole-based oracle
// built on them) are answered through the index from then on; results are
// identical to the linear path.  Enabling twice is a no-op.
func (p *Profile) EnableIndex() {
	if p.idx == nil {
		p.idx = &profIndex{dirty: true}
		p.idx.stats.Enabled = true
	}
}

// IndexStats returns the index's work counters (zero value when no index is
// attached).
func (p *Profile) IndexStats() IndexStats {
	if p.idx == nil {
		return IndexStats{}
	}
	return p.idx.stats
}

// markIndexDirty records a change that moves or revalues every leaf (reslot,
// SetCapacity); the next indexed query rebuilds the tree.
func (p *Profile) markIndexDirty() {
	if p.idx != nil {
		p.idx.dirty = true
	}
}

// idxEnsure rebuilds the index if it is stale and returns it.
func (p *Profile) idxEnsure() *profIndex {
	x := p.idx
	if x.dirty {
		x.rebuild(p)
	}
	return x
}

// rebuild reconstructs the tree from the profile in O(slots).  The node
// arrays are reused across rebuilds once grown.
func (x *profIndex) rebuild(p *Profile) {
	size := 1
	for size < len(p.tbuf) {
		size <<= 1
	}
	if len(x.minA) < 2*size {
		x.minA = make([]int, 2*size)
		x.maxA = make([]int, 2*size)
	}
	x.size, x.head, x.n, x.full = size, p.head, len(p.used), p.capacity
	for j := size; j < 2*size; j++ {
		x.minA[j] = x.full
		x.maxA[j] = x.full
	}
	for i, u := range p.used {
		x.minA[size+x.head+i] = x.full - u
		x.maxA[size+x.head+i] = x.full - u
	}
	x.pull(size, 2*size-1)
	x.dirty = false
	x.stats.Rebuilds++
}

// pull recomputes every ancestor of the leaves at node positions [l, r].
func (x *profIndex) pull(l, r int) {
	for l, r = l>>1, r>>1; l >= 1; l, r = l>>1, r>>1 {
		for i := l; i <= r; i++ {
			a, b := 2*i, 2*i+1
			x.minA[i] = min(x.minA[a], x.minA[b])
			x.maxA[i] = max(x.maxA[a], x.maxA[b])
		}
	}
}

// refreshLeaves rewrites the leaves of segments [lo, hi) from the profile
// after a reservation changed their usage.
func (x *profIndex) refreshLeaves(p *Profile, lo, hi int) {
	base := x.size + x.head
	for i := lo; i < hi; i++ {
		x.minA[base+i] = x.full - p.used[i]
		x.maxA[base+i] = x.full - p.used[i]
	}
	x.pull(base+lo, base+hi-1)
	x.leafUpdates += int64(hi - lo)
}

// insertLeaf mirrors a breakpoint insertion at segment i >= 1: the leaves of
// segments [i, n) move one slot toward the tail and the new leaf i repeats
// leaf i-1 (the segment it splits).  The profile guarantees the free slot.
func (x *profIndex) insertLeaf(i int) {
	at, end := x.size+x.head+i, x.size+x.head+x.n
	copy(x.minA[at+1:end+1], x.minA[at:end])
	copy(x.maxA[at+1:end+1], x.maxA[at:end])
	x.minA[at] = x.minA[at-1]
	x.maxA[at] = x.maxA[at-1]
	x.n++
	x.pull(at, end)
	x.leafUpdates += int64(end - at + 1)
}

// retireLeaves mirrors a trim that dropped the first k segments: their
// leaves go back to full availability and head moves past them.
func (x *profIndex) retireLeaves(k int) {
	at := x.size + x.head
	for j := at; j < at+k; j++ {
		x.minA[j] = x.full
		x.maxA[j] = x.full
	}
	x.head += k
	x.n -= k
	x.pull(at, at+k-1)
	x.leafUpdates += int64(k)
}

// rangeMin returns the minimum availability over segments [l, r] (inclusive).
func (x *profIndex) rangeMin(l, r int) int {
	res := int(^uint(0) >> 1) // max int
	a, b := x.size+x.head+l, x.size+x.head+r+1
	for a < b {
		if a&1 == 1 {
			if x.minA[a] < res {
				res = x.minA[a]
			}
			a++
		}
		if b&1 == 1 {
			b--
			if x.minA[b] < res {
				res = x.minA[b]
			}
		}
		a >>= 1
		b >>= 1
	}
	return res
}

// firstBelow returns the smallest segment >= from whose availability is
// strictly below k, or n if none exists among the live leaves.  Leaves past
// the tail hold full capacity and therefore never match for k <= capacity.
func (x *profIndex) firstBelow(from, k int) int {
	return x.firstMatch(from, func(node int) bool { return x.minA[node] < k }, true)
}

// firstAtLeast returns the smallest segment >= from whose availability is
// at least k, or n if none exists.  For k <= capacity the final live leaf
// (the profile's idle tail segment) always matches.
func (x *profIndex) firstAtLeast(from, k int) int {
	return x.firstMatch(from, func(node int) bool { return x.maxA[node] >= k }, false)
}

// firstMatch walks rightward from segment `from`, merging into parents on
// alignment, until a subtree satisfying pred is found, then descends to its
// leftmost satisfying leaf.  useMin selects which array the leaf descent
// reads (pred must be the corresponding subtree test).
func (x *profIndex) firstMatch(from int, pred func(node int) bool, useMin bool) int {
	x.stats.Descents++
	if from < 0 {
		from = 0
	}
	if from >= x.n {
		return x.n
	}
	pos := x.size + x.head + from
	for {
		x.stats.DescentSteps++
		if pred(pos) {
			for pos < x.size {
				x.stats.DescentSteps++
				if pred(2 * pos) {
					pos = 2 * pos
				} else {
					pos = 2*pos + 1
				}
			}
			idx := pos - x.size - x.head
			if idx >= x.n {
				return x.n
			}
			return idx
		}
		pos++
		if pos&(pos-1) == 0 {
			return x.n // walked off the right edge of the tree
		}
		for pos&1 == 0 {
			pos >>= 1
		}
	}
}

// lastBelow returns the largest segment <= upTo whose availability is
// strictly below k, or -1 if none exists.  Retired leaves hold full capacity
// and therefore never match for k <= capacity.
func (x *profIndex) lastBelow(upTo, k int) int {
	x.stats.Descents++
	if upTo >= x.n {
		upTo = x.n - 1
	}
	if upTo < 0 {
		return -1
	}
	pos := x.size + x.head + upTo
	for {
		x.stats.DescentSteps++
		if x.minA[pos] < k {
			for pos < x.size {
				x.stats.DescentSteps++
				if x.minA[2*pos+1] < k {
					pos = 2*pos + 1
				} else {
					pos = 2 * pos
				}
			}
			return pos - x.size - x.head
		}
		if pos&(pos-1) == 0 {
			return -1 // subtree started at leaf 0: nothing to the left
		}
		pos--
		for pos&1 == 1 {
			pos >>= 1
		}
	}
}

// checkIndex verifies that a clean index agrees with the profile: the same
// slot layout and capacity, every live leaf equal to its segment's
// availability, every other leaf at full capacity, and every inner node the
// min/max of its children (used by CheckInvariants and the differential
// harness).
func (p *Profile) checkIndex() error {
	x := p.idx
	if x == nil || x.dirty {
		return nil // stale index carries no claims
	}
	if x.head != p.head || x.n != len(p.used) || x.full != p.capacity || x.size < len(p.tbuf) {
		return fmt.Errorf("core: index layout (head %d, n %d, full %d, size %d), profile (head %d, n %d, capacity %d, slots %d)",
			x.head, x.n, x.full, x.size, p.head, len(p.used), p.capacity, len(p.tbuf))
	}
	for j := 0; j < x.size; j++ {
		v := x.full
		if i := j - x.head; i >= 0 && i < x.n {
			v -= p.used[i]
		}
		if x.minA[x.size+j] != v || x.maxA[x.size+j] != v {
			return fmt.Errorf("core: index leaf %d (head %d, n %d) = (%d,%d), want %d",
				j, x.head, x.n, x.minA[x.size+j], x.maxA[x.size+j], v)
		}
	}
	for i := x.size - 1; i >= 1; i-- {
		l, r := 2*i, 2*i+1
		mn, mx := min(x.minA[l], x.minA[r]), max(x.maxA[l], x.maxA[r])
		if x.minA[i] != mn || x.maxA[i] != mx {
			return fmt.Errorf("core: index node %d = (%d,%d), want (%d,%d)",
				i, x.minA[i], x.maxA[i], mn, mx)
		}
	}
	return nil
}

// minAvailOnIndexed answers MinAvailOn through the index.  The segment range
// is derived with the same Eps-tolerant predicates as the linear scan, so
// the answer is identical.
func (p *Profile) minAvailOnIndexed(a, b float64) int {
	if !timeLess(a, b) {
		return p.capacity - p.usedAt(a)
	}
	x := p.idxEnsure()
	lo := p.seg(a)
	n := len(p.times)
	// First segment index > lo whose start already reaches b (the linear
	// loop's break condition), capped at n.
	hi := lo + 1 + sort.Search(n-lo-1, func(k int) bool { return timeLeq(b, p.times[lo+1+k]) })
	if hi > n {
		hi = n
	}
	return x.rangeMin(lo, hi-1)
}

// earliestFitIndexed answers EarliestFit through the index.  The search
// alternates max-descents (skip to the next segment with enough
// availability) with range checks, visiting O(log n) nodes per blocked
// stretch instead of scanning every segment.  Candidate start times and all
// boundary comparisons are the same expressions as the linear scan, so the
// returned start is bitwise identical.
func (p *Profile) earliestFitIndexed(procs int, duration, est, deadline float64) (float64, bool) {
	if procs > p.capacity || duration <= 0 {
		return 0, false
	}
	x := p.idxEnsure()
	n := len(p.times)
	s := maxTime(est, p.times[0])
	if !timeLeq(s+duration, deadline) {
		return 0, false
	}
	i := p.seg(s)
	for {
		if p.capacity-p.used[i] < procs {
			// The linear scan blocks immediately at i and then marches
			// segment by segment; jump straight to the next segment with
			// enough availability (the idle tail guarantees one exists).
			m := x.firstAtLeast(i+1, procs)
			if m >= n {
				return 0, false
			}
			s = p.times[m]
			i = m
			if !timeLeq(s+duration, deadline) {
				return 0, false
			}
		}
		// avail(i) >= procs and times[i] <= s here.  The window [s, s+d)
		// is covered by segments [i, jEnd].
		jEnd := i + sort.Search(n-1-i, func(k int) bool { return timeLeq(s+duration, p.times[i+1+k]) })
		jb := x.firstBelow(i, procs)
		if jb > jEnd {
			return s, true
		}
		// Segment jb blocks the window; restart after it at the next
		// sufficiently available segment.  jb < n-1 always: the final
		// segment is idle and procs <= capacity.
		m := x.firstAtLeast(jb+1, procs)
		if m >= n {
			return 0, false
		}
		s = p.times[m]
		i = m
		if !timeLeq(s+duration, deadline) {
			return 0, false
		}
	}
}

// maximalHolesIndexed answers MaximalHoles through the index: each
// candidate rectangle's left/right extension is a single backward/forward
// descent and its height a range-min query, O(n log n) total.  Spans,
// deduplication, hole boundaries and ordering are computed with the same
// expressions as the linear enumeration, so the slice is identical.
func (p *Profile) maximalHolesIndexed(from float64) []Hole {
	x := p.idxEnsure()
	from = maxTime(from, p.times[0])
	lo := p.seg(from)
	n := len(p.times)

	type span struct{ l, r int }
	seen := make(map[span]bool)
	var holes []Hole

	for i := lo; i < n; i++ {
		avail := p.capacity - p.used[i]
		if avail <= 0 {
			continue
		}
		l := lo
		if j := x.lastBelow(i-1, avail); j+1 > lo {
			l = j + 1
		}
		r := n - 1
		if j := x.firstBelow(i+1, avail); j < n {
			r = j - 1
		}
		min := x.rangeMin(l, r)
		sp := span{l, r}
		if seen[sp] {
			continue
		}
		seen[sp] = true
		start := p.times[l]
		if l == lo {
			start = maxTime(p.times[l], from)
		}
		end := inf
		if r < n-1 {
			end = p.times[r+1]
		}
		holes = append(holes, Hole{Start: start, End: end, Procs: min})
	}
	sort.Slice(holes, func(a, b int) bool {
		if !timeEq(holes[a].Start, holes[b].Start) {
			return holes[a].Start < holes[b].Start
		}
		return holes[a].Procs > holes[b].Procs
	})
	return holes
}
