package core

import "sort"

// Hole is a maximal free rectangle in the processor-time plane: Procs
// processors are free throughout [Start, End), and the rectangle cannot be
// enlarged in either time direction without losing availability (Section 5.2
// of the paper represents the schedule as the set of such triples).
// End is +inf for holes that extend past the last reservation.
type Hole struct {
	Start float64
	End   float64
	Procs int
}

// MaximalHoles enumerates the maximal holes of the profile at or after time
// from, ordered by start time.  A hole's Procs is the minimum availability
// over its span, and extending the span in either direction would reduce
// that minimum (or run past `from` on the left).
//
// The enumeration is the histogram-of-availability "all maximal rectangles"
// computation: for every segment, the rectangle of that segment's
// availability extended left and right while availability stays at least as
// large, deduplicated.  With a segment-tree index attached the extensions
// are tree descents (O(n log n) total); the linear path below is the
// reference oracle.
func (p *Profile) MaximalHoles(from float64) []Hole {
	if p.idx != nil {
		return p.maximalHolesIndexed(from)
	}
	return p.maximalHolesLinear(from)
}

// maximalHolesLinear is the reference O(n^2) enumeration.
func (p *Profile) maximalHolesLinear(from float64) []Hole {
	from = maxTime(from, p.times[0])
	lo := p.seg(from)
	n := len(p.times)

	type span struct{ l, r int } // segment index range [l, r]
	seen := make(map[span]bool)
	var holes []Hole

	for i := lo; i < n; i++ {
		avail := p.capacity - p.used[i]
		if avail <= 0 {
			continue
		}
		l := i
		for l > lo && p.capacity-p.used[l-1] >= avail {
			l--
		}
		r := i
		for r < n-1 && p.capacity-p.used[r+1] >= avail {
			r++
		}
		// The true height of the maximal rectangle spanning [l, r] is the
		// minimum availability over it, which by construction is avail only
		// if segment i is (one of) the minima; recompute to deduplicate
		// different i yielding the same span.
		min := avail
		for k := l; k <= r; k++ {
			if a := p.capacity - p.used[k]; a < min {
				min = a
			}
		}
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
