package latency

import (
	"milan/internal/obs/latency/phase"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Exemplar is one tail request's identity and phase waterfall: which
// trace was slow, where its time went, when.  It carries no pointers or
// strings so offering one to the ring never allocates.
type Exemplar struct {
	// Trace is the request's trace ID (0 when tracing sampled it out —
	// the waterfall still identifies the phase anatomy).
	Trace uint64 `json:"trace,string"`
	// Job is the admitted (or rejected) job ID.
	Job int64 `json:"job"`
	// Shard is the shard that decided the request (-1 for monolith).
	Shard int32 `json:"shard"`
	// Total is the end-to-end latency in nanoseconds.
	Total int64 `json:"total_ns"`
	// Durs is the per-phase waterfall in nanoseconds, PhaseNames order.
	Durs [NumPhases]int64 `json:"phase_ns"`
	// At is the wall-clock completion time in unix seconds.
	At float64 `json:"at"`
}

// exemplarK is how many of the slowest requests the ring keeps per
// window; exemplarWindow is the rotation period (topK serves the current
// plus the previous window).
const (
	exemplarK      = 8
	exemplarWindow = 10 * time.Second
)

// exemplarRing keeps the top-K slowest requests of the current window
// plus the previous window's winners.  Two atomics, the current window's
// end and its K-th slowest total once full, let the hot path skip the
// mutex for every request that ends inside the window and cannot place
// there.
type exemplarRing struct {
	windowNs int64

	end       atomic.Int64 // monotonic ns at which the current window ends
	threshold atomic.Int64 // below this total, an offer before end is a no-op

	mu       sync.Mutex
	curStart int64 // monotonic ns of the current window's start
	cur      []Exemplar
	prev     []Exemplar
}

// init empties the ring and starts a window of the given length now.
func (x *exemplarRing) init(window time.Duration) {
	x.windowNs = int64(window)
	x.cur = make([]Exemplar, 0, exemplarK)
	x.prev = make([]Exemplar, 0, exemplarK)
	x.curStart = phase.NowNanos()
	x.end.Store(x.curStart + x.windowNs)
}

// offer places e, which ended at monotonic time endMono, into its window's
// top-K if it is slow enough.  The end is read before the threshold, and a
// rotation clears the threshold before it moves the end, so a request that
// ends in a new window never meets the old window's threshold.
func (x *exemplarRing) offer(e Exemplar, endMono int64) {
	if endMono < x.end.Load() && e.Total < x.threshold.Load() {
		return
	}
	x.mu.Lock()
	x.rotateLocked(endMono)
	if len(x.cur) < exemplarK {
		x.cur = append(x.cur, e)
		if len(x.cur) == exemplarK {
			x.threshold.Store(x.minLocked())
		}
	} else {
		mi := 0
		for i := 1; i < len(x.cur); i++ {
			if x.cur[i].Total < x.cur[mi].Total {
				mi = i
			}
		}
		if e.Total > x.cur[mi].Total {
			x.cur[mi] = e
			x.threshold.Store(x.minLocked())
		}
	}
	x.mu.Unlock()
}

// rotateLocked retires the current window when it has elapsed.  After a
// long quiet gap both windows age out.
func (x *exemplarRing) rotateLocked(now int64) {
	if now-x.curStart < x.windowNs {
		return
	}
	if now-x.curStart >= 2*x.windowNs {
		x.prev = x.prev[:0]
	} else {
		x.prev = append(x.prev[:0], x.cur...)
	}
	x.cur = x.cur[:0]
	x.curStart = now
	x.threshold.Store(0)
	x.end.Store(now + x.windowNs)
}

func (x *exemplarRing) minLocked() int64 {
	m := x.cur[0].Total
	for _, e := range x.cur[1:] {
		if e.Total < m {
			m = e.Total
		}
	}
	return m
}

// topK returns current + previous window exemplars, slowest first,
// bounded by 2K.
func (x *exemplarRing) topK() []Exemplar {
	now := phase.NowNanos()
	x.mu.Lock()
	x.rotateLocked(now)
	out := make([]Exemplar, 0, len(x.cur)+len(x.prev))
	out = append(out, x.cur...)
	out = append(out, x.prev...)
	x.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// MergeTopK folds several exemplar sets into the k slowest overall
// (slowest first) — the cluster-wide view milanmon serves.
func MergeTopK(k int, sets ...[]Exemplar) []Exemplar {
	var all []Exemplar
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Total > all[j].Total })
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}
