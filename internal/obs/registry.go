// Package obs is the observability layer of the system: a lock-cheap
// runtime metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms and Welford statistics), structured trace events with a
// recent-events ring, request spans, and an HTTP debug endpoint.
//
// The package exists to make every admission decision traceable (which
// job, which chain, which reservation, why a refusal) and every hot path
// measurable while it runs, without perturbing the unobserved fast path:
// every feed it adapts — an arbitrator's decision observer, the runtime's
// trace hooks, the sim engine's event callback — is nil-checked at the
// call site, so an arbitrator, runtime or sim engine without an attached
// Observer pays no instrumentation cost.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"milan/internal/metrics"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (delta may be negative only to correct over-counting;
// counters are conventionally monotonic).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge: a point-in-time level (queue depth,
// reserved area, alive workers).
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// add atomically adds delta to the gauge.
func (g *Gauge) add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the gauge's value.
func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// Hist is a fixed-bucket histogram over [Lo, Hi) with atomic buckets, safe
// for concurrent Observe inside hot loops.  Observations outside the range
// saturate into under/over buckets (they still count toward N and Sum).
//
// Two bucket layouts exist: the classic uniform layout (newHist: n equal
// buckets over [lo, hi)) and a log-linear layout (newHistLogLinear:
// power-of-two octaves each split into `sub` equal sub-buckets, the
// HDR-histogram shape), which keeps relative error bounded across many
// decades of latency.  Both index in O(1) with no locks.
type Hist struct {
	lo, hi  float64
	width   float64
	buckets []atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-added

	// Log-linear layout (nil bounds ⇒ uniform).  bounds[i] is bucket i's
	// upper edge; bucket i covers [edge(i-1), bounds[i]) with edge(-1)=lo.
	bounds []float64
	oct0   int // exponent of the first octave: lo == 2^oct0
	sub    int // sub-buckets per octave
}

// newHist returns a histogram with n buckets over [lo, hi).
func newHist(lo, hi float64, n int) *Hist {
	if n < 1 || !(hi > lo) {
		panic(fmt.Sprintf("obs: bad histogram range [%v,%v) x%d", lo, hi, n))
	}
	return &Hist{lo: lo, hi: hi, width: (hi - lo) / float64(n), buckets: make([]atomic.Int64, n)}
}

// newHistLogLinear returns a log-linear histogram covering [2^oct0,
// 2^(oct0+octaves)) with sub equal-width sub-buckets per power-of-two
// octave (octaves*sub buckets total).  Relative bucket width is bounded
// by 1/sub everywhere in range, so one histogram spans nanoseconds to
// seconds without the uniform layout's resolution collapse.
func newHistLogLinear(oct0, octaves, sub int) *Hist {
	if octaves < 1 || sub < 1 {
		panic(fmt.Sprintf("obs: bad log-linear shape octaves=%d sub=%d", octaves, sub))
	}
	bounds := logLinearBounds(oct0, octaves, sub)
	return &Hist{
		lo:      math.Ldexp(1, oct0),
		hi:      bounds[len(bounds)-1],
		buckets: make([]atomic.Int64, len(bounds)),
		bounds:  bounds,
		oct0:    oct0,
		sub:     sub,
	}
}

// logLinearBounds returns the bucket upper edges of the log-linear layout
// (exported so decoders and tests can reconstruct and verify shapes).
func logLinearBounds(oct0, octaves, sub int) []float64 {
	bounds := make([]float64, 0, octaves*sub)
	for o := 0; o < octaves; o++ {
		base := math.Ldexp(1, oct0+o)
		for j := 1; j <= sub; j++ {
			bounds = append(bounds, base+base*float64(j)/float64(sub))
		}
	}
	return bounds
}

// logLinearIndex locates x (known to be in [lo, hi)) in O(1): the octave
// comes from the float's exponent (Frexp), the sub-bucket from the
// mantissa's position within the octave.
func (h *Hist) logLinearIndex(x float64) int {
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1 - h.oct0    // octave of x relative to the first
	// Position within the octave: x/2^octBase - 1 in [0, 1).
	j := int((frac*2 - 1) * float64(h.sub))
	if j >= h.sub { // guard float rounding at the octave edge
		j = h.sub - 1
	}
	i := oct*h.sub + j
	if i < 0 {
		return 0
	}
	if i >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return i
}

// Observe incorporates one observation.
func (h *Hist) Observe(x float64) {
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	switch {
	case x < h.lo:
		h.under.Add(1)
	case x >= h.hi:
		h.over.Add(1)
	case h.bounds != nil:
		h.buckets[h.logLinearIndex(x)].Add(1)
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard float rounding at the upper edge
			i = len(h.buckets) - 1
		}
		h.buckets[i].Add(1)
	}
}

// Snapshot returns a point-in-time copy of the histogram's state.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Lo:      h.lo,
		Hi:      h.hi,
		Buckets: make([]int64, len(h.buckets)),
		Under:   h.under.Load(),
		Over:    h.over.Load(),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Bounds:  h.bounds, // immutable after construction, safe to share
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram state, mergeable across shards or
// runs and serializable to JSON.  Bounds, when non-nil, gives each
// bucket's upper edge (the log-linear layout); nil Bounds means the
// classic uniform layout over [Lo, Hi).
type HistSnapshot struct {
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Buckets []int64   `json:"buckets"`
	Under   int64     `json:"under"`
	Over    int64     `json:"over"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds,omitempty"`
}

// bucketUpper returns bucket i's upper edge under either layout.
func (s HistSnapshot) bucketUpper(i int) float64 {
	if s.Bounds != nil {
		return s.Bounds[i]
	}
	return s.Lo + float64(i+1)*(s.Hi-s.Lo)/float64(len(s.Buckets))
}

// bucketLower returns bucket i's lower edge under either layout.
func (s HistSnapshot) bucketLower(i int) float64 {
	if i == 0 {
		return s.Lo
	}
	return s.bucketUpper(i - 1)
}

// sameShape reports whether two snapshots can merge: identical range,
// bucket count, and bucket-edge layout.
func (s HistSnapshot) sameShape(o HistSnapshot) bool {
	if s.Lo != o.Lo || s.Hi != o.Hi || len(s.Buckets) != len(o.Buckets) || len(s.Bounds) != len(o.Bounds) {
		return false
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return false
		}
	}
	return true
}

// Mean returns the mean observation (0 with no observations).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an approximate q-quantile (q in [0, 1]) assuming
// observations are uniform within buckets; out-of-range observations clamp
// to the range edges.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return s.Lo
	}
	target := q * float64(s.Count)
	cum := float64(s.Under)
	if target <= cum {
		return s.Lo
	}
	for i, c := range s.Buckets {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			lo := s.bucketLower(i)
			return lo + frac*(s.bucketUpper(i)-lo)
		}
		cum = next
	}
	return s.Hi
}

// merge folds another snapshot into this one.  The snapshots must have the
// same bucket shape.
func (s *HistSnapshot) merge(o HistSnapshot) error {
	if !s.sameShape(o) {
		return fmt.Errorf("obs: merging mismatched histograms [%v,%v)x%d/%d and [%v,%v)x%d/%d",
			s.Lo, s.Hi, len(s.Buckets), len(s.Bounds), o.Lo, o.Hi, len(o.Buckets), len(o.Bounds))
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Under += o.Under
	s.Over += o.Over
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// Stat is a mutex-protected Welford accumulator: mean, variance and CI of a
// stream of observations.  It reuses the numerically stable one-pass
// algorithm from internal/metrics.
type Stat struct {
	mu sync.Mutex
	w  metrics.Welford
}

// Observe incorporates one observation.
func (s *Stat) Observe(x float64) {
	s.mu.Lock()
	s.w.Add(x)
	s.mu.Unlock()
}

// snapshot returns the accumulated statistics.
func (s *Stat) snapshot() StatSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatSnapshot{N: s.w.N(), Mean: s.w.Mean(), Std: s.w.Std(), CI95: s.w.CI95()}
}

// StatSnapshot is an immutable Stat state.
type StatSnapshot struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
}

// Registry is a named collection of metrics.  Metric lookup takes a short
// RWMutex; the metrics themselves are atomic, so the idiomatic pattern in
// hot code is to resolve each metric once and retain the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	stats    map[string]*Stat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		stats:    make(map[string]*Stat),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given shape
// on first use (the shape of an existing histogram is kept).
func (r *Registry) Histogram(name string, lo, hi float64, n int) *Hist {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHist(lo, hi, n)
	r.hists[name] = h
	return h
}

// HistogramLogLinear returns the named log-linear histogram, creating it
// with the given shape on first use (the shape of an existing histogram
// is kept, exactly like Histogram).
func (r *Registry) HistogramLogLinear(name string, oct0, octaves, sub int) *Hist {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistLogLinear(oct0, octaves, sub)
	r.hists[name] = h
	return h
}

// Stat returns the named Welford accumulator, creating it on first use.
func (r *Registry) Stat(name string) *Stat {
	r.mu.RLock()
	s, ok := r.stats[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.stats[name]; ok {
		return s
	}
	s = &Stat{}
	r.stats[name] = s
	return s
}

// Snapshot captures the registry's state: a consistent-enough copy for
// reporting (individual metrics are read atomically; the set is read under
// the registry lock).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Stats:      make(map[string]StatSnapshot, len(r.stats)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, st := range r.stats {
		s.Stats[name] = st.snapshot()
	}
	return s
}

// Snapshot is a point-in-time registry state, serializable and mergeable.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Stats      map[string]StatSnapshot `json:"stats"`
}

// Clone returns a deep copy of the snapshot (bucket slices included),
// safe to mutate or Merge into without aliasing the original.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
		Stats:      make(map[string]StatSnapshot, len(s.Stats)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, h := range s.Histograms {
		h.Buckets = append([]int64(nil), h.Buckets...)
		out.Histograms[k] = h
	}
	for k, v := range s.Stats {
		out.Stats[k] = v
	}
	return out
}

// Merge folds another snapshot into this one: counters and histogram
// buckets add, gauges take the other side's value (last write wins), stats
// merge their moments.
func (s *Snapshot) Merge(o Snapshot) error {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	if s.Stats == nil {
		s.Stats = make(map[string]StatSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] = v
	}
	for name, h := range o.Histograms {
		mine, ok := s.Histograms[name]
		if !ok {
			cp := h
			cp.Buckets = append([]int64(nil), h.Buckets...)
			s.Histograms[name] = cp
			continue
		}
		mine.Buckets = append([]int64(nil), mine.Buckets...)
		if err := mine.merge(h); err != nil {
			return err
		}
		s.Histograms[name] = mine
	}
	for name, st := range o.Stats {
		mine, ok := s.Stats[name]
		if !ok {
			s.Stats[name] = st
			continue
		}
		// Approximate merge of summary stats: weight means by N.  (Exact
		// variance merging needs the raw moments; Stat.snapshot exposes
		// only the summary, which suffices for reporting.)
		n := mine.N + st.N
		if n > 0 {
			mine.Mean = (mine.Mean*float64(mine.N) + st.Mean*float64(st.N)) / float64(n)
		}
		mine.N = n
		s.Stats[name] = mine
	}
	return nil
}

// writeJSON writes the registry snapshot as indented expvar-style JSON.
func (r *Registry) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteTable renders the registry snapshot as a sorted, tab-aligned table:
// one row per metric, histograms summarized as count/mean/p50/p99.
func (r *Registry) WriteTable(w io.Writer) error {
	s := r.Snapshot()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\ttype\tvalue")
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(tw, "%s\tcounter\t%d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(tw, "%s\tgauge\t%.6g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(tw, "%s\thistogram\tn=%d mean=%.4g p50=%.4g p99=%.4g\n",
			name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	for _, name := range sortedKeys(s.Stats) {
		st := s.Stats[name]
		fmt.Fprintf(tw, "%s\tstat\tn=%d mean=%.4g std=%.4g ci95=%.4g\n",
			name, st.N, st.Mean, st.Std, st.CI95)
	}
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
