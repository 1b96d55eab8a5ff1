// Package obs is the observability layer of the system: a lock-cheap
// runtime metrics registry (atomic counters, gauges and log-linear
// duration histograms), structured trace events with a
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
	"maps"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
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

// The one histogram layout: log-linear over [2^histOct0, 2^(histOct0+
// histOctaves)) ns, 256 ns to ~8.6 s, each power-of-two octave split into
// histSub equal sub-buckets (the HDR-histogram shape).  That is 200
// buckets, none wider than 12.5 % of its lower edge.
const (
	histOct0    = 8
	histOctaves = 25
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = histOctaves * histSub
	histLo      = int64(1) << histOct0
	histHi      = int64(1) << (histOct0 + histOctaves)
)

// histBounds holds each bucket's upper edge in ns; every snapshot shares it.
var histBounds = func() []float64 {
	bounds := make([]float64, 0, histBuckets)
	for o := 0; o < histOctaves; o++ {
		base := math.Ldexp(1, histOct0+o)
		for j := 1; j <= histSub; j++ {
			bounds = append(bounds, base+base*float64(j)/float64(histSub))
		}
	}
	return bounds
}()

// Hist is a histogram of durations on the log-linear layout, with atomic
// buckets, safe for concurrent Observe inside hot loops.  It counts
// integer nanoseconds, so count, buckets and sum merge exactly across
// nodes.  Observations outside the range saturate into under/over buckets
// (they still count toward Count and Sum).  The zero value is ready to use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // ns
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	ns := int64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	switch {
	case ns < histLo:
		h.under.Add(1)
	case ns >= histHi:
		h.over.Add(1)
	default:
		// The octave is ns's top bit; the sub-bucket is the next
		// histSubBits bits below it.
		e := bits.Len64(uint64(ns)) - 1
		j := int((ns - int64(1)<<e) >> (e - histSubBits))
		h.buckets[(e-histOct0)*histSub+j].Add(1)
	}
}

// Snapshot returns a point-in-time copy of the histogram's state.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Lo:      float64(histLo),
		Hi:      float64(histHi),
		Buckets: make([]int64, histBuckets),
		Under:   h.under.Load(),
		Over:    h.over.Load(),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  histBounds, // never written, safe to share
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram state in ns, mergeable across
// shards or runs and serializable to JSON.  Bounds gives each bucket's
// upper edge, so a scraped snapshot says which layout it was counted on.
type HistSnapshot struct {
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Buckets []int64   `json:"buckets"`
	Under   int64     `json:"under"`
	Over    int64     `json:"over"`
	Count   int64     `json:"count"`
	Sum     int64     `json:"sum"`
	Bounds  []float64 `json:"bounds"`
}

// bucketLower returns bucket i's lower edge.
func (s HistSnapshot) bucketLower(i int) float64 {
	if i == 0 {
		return s.Lo
	}
	return s.Bounds[i-1]
}

// sameShape reports whether two snapshots can merge: identical range,
// bucket count, and bucket edges.  A snapshot scraped from another
// program may have been counted on another layout.
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

// Mean returns the mean observation in ns (0 with no observations).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an approximate q-quantile (q in [0, 1]) in ns assuming
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
			return lo + frac*(s.Bounds[i]-lo)
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

// Registry is a named collection of metrics.  Metric lookup takes a short
// RWMutex; the metrics themselves are atomic, so the idiomatic pattern in
// hot code is to resolve each metric once and retain the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// lookup returns m's metric called name, creating its zero value on first
// use.  m is one of r's maps, guarded by r.mu.
func lookup[M any](r *Registry, m map[string]*M, name string) *M {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = new(M)
	m[name] = v
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return lookup(r, r.counters, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return lookup(r, r.gauges, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Hist { return lookup(r, r.hists, name) }

// Snapshot captures the registry's state: a consistent-enough copy for
// reporting (individual metrics are read atomically; the set is read under
// the registry lock).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 { // nil otherwise, as it decodes from JSON
		s.Gauges = make(map[string]float64, len(r.gauges))
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time registry state, serializable and mergeable.
// A merged snapshot carries no gauges (see Merge).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Clone returns a deep copy of the snapshot (bucket slices included),
// safe to mutate or Merge into without aliasing the original.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{
		Counters:   maps.Clone(s.Counters),
		Gauges:     maps.Clone(s.Gauges),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for k, h := range s.Histograms {
		h.Buckets = append([]int64(nil), h.Buckets...)
		out.Histograms[k] = h
	}
	return out
}

// Merge folds another snapshot into this one: counters and histogram
// buckets add.  Gauges do not add — each is one node's level, such as
// durable_poisoned — so the merged snapshot has none; read them per node.
// A histogram not on this program's layout is refused, even the first of
// its name.
func (s *Snapshot) Merge(o Snapshot) error {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	s.Gauges = nil
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, h := range o.Histograms {
		mine, ok := s.Histograms[name]
		if ok {
			mine.Buckets = append([]int64(nil), mine.Buckets...)
		} else {
			mine = new(Hist).Snapshot()
		}
		if err := mine.merge(h); err != nil {
			return err
		}
		s.Histograms[name] = mine
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
		fmt.Fprintf(tw, "%s\thistogram\tn=%d mean=%v p50=%v p99=%v\n", name, h.Count,
			time.Duration(h.Mean()), time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)))
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
