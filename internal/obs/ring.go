package obs

import "fmt"

// Ring is the one bounded-ring implementation shared by every retention
// buffer in the observability layer: the Observer's event ring (/trace),
// the Tracer's completed-span ring (/spans), the aggregator's per-node
// span ring (internal/obs/telemetry) and the admission-forensics
// diagnosis ring (internal/obs/forensics).  A process keeps each stream
// once: the flight recorder (internal/obs/slo) keeps no ring of its own
// and copies the tracer's and the observer's rings when it cuts a
// snapshot.  When the ring wraps, the oldest elements are evicted — never
// reordered — and every eviction is accounted in Dropped rather than
// silently overwritten: Items() always returns a contiguous,
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

// Items returns the retained elements in insertion order (oldest first),
// nil when there are none.
func (r *Ring[T]) Items() []T { return r.since(0) }

// since returns the retained elements pushed after the first n (n counts
// like Total), oldest first: every retained element when the n-th was
// already evicted, nil when nothing came after it.
func (r *Ring[T]) since(n int64) []T {
	k := int(r.total - max(n, r.dropped))
	if k <= 0 {
		return nil
	}
	start := (r.next - k + len(r.buf)) % len(r.buf)
	out := make([]T, 0, k)
	if end := start + k; end <= len(r.buf) {
		return append(out, r.buf[start:end]...)
	}
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:k-len(out)]...)
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of elements ever pushed (including evicted
// ones).
func (r *Ring[T]) Total() int64 { return r.total }

// Dropped returns how many elements were evicted because the ring
// wrapped.  Total() - Dropped() equals the number of retained elements.
func (r *Ring[T]) Dropped() int64 { return r.dropped }
