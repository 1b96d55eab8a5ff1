package obs

import "fmt"

// Ring is the one bounded-ring implementation shared by every retention
// buffer in the observability layer: the trace-event ringSink, the
// Tracer's completed-span ring, the flight recorder's span/event rings
// (internal/obs/slo) and the admission-forensics diagnosis ring
// (internal/obs/forensics).  When the ring wraps, the oldest elements are
// evicted — never reordered — and every eviction is accounted in Dropped
// rather than silently overwritten: Items() always returns a contiguous,
// insertion-ordered suffix of the full stream, and
// Total() == Dropped() + int64(Len()).
//
// A Ring is not safe for concurrent use on its own; owners guard it with
// their own mutex (they all already hold one for adjacent state).
type Ring[T any] struct {
	buf     []T
	next    int
	total   int64
	dropped int64
}

// NewRing returns a ring holding up to n elements (n >= 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		panic(fmt.Sprintf("obs: ring capacity %d must be >= 1", n))
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Push appends v, evicting the oldest element when full (counted in
// Dropped).  It returns the evicted element and whether one was evicted,
// so owners keeping secondary indexes (e.g. the forensics per-job map)
// can unlink it; callers without such bookkeeping ignore the results.
func (r *Ring[T]) Push(v T) (evicted T, wasEvicted bool) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		evicted, wasEvicted = r.buf[r.next], true
		r.buf[r.next] = v
		r.dropped++
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	return evicted, wasEvicted
}

// Items returns the retained elements in insertion order (oldest first).
func (r *Ring[T]) Items() []T {
	if len(r.buf) < cap(r.buf) {
		return append([]T(nil), r.buf...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of elements ever pushed (including evicted
// ones).
func (r *Ring[T]) Total() int64 { return r.total }

// Dropped returns how many elements were evicted because the ring
// wrapped.  Total() - Dropped() equals the number of retained elements.
func (r *Ring[T]) Dropped() int64 { return r.dropped }
