// Package runtimewatch polls the Go runtime's health signals — GC pause
// and scheduler latency distributions, goroutine count, heap size, mutex
// wait time — from runtime/metrics into the mergeable obs.Registry, so
// admission latency anomalies can be correlated with runtime pressure (a
// GC pause spike explains a plan-phase tail better than any amount of
// re-profiling after the fact).
//
// The watcher intersects its wanted metric names with what the running
// toolchain actually exports (runtime/metrics names vary across Go
// releases), so it degrades gracefully instead of failing to build or
// panicking on older runtimes.
package runtimewatch

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"milan/internal/obs"
)

// runtimeMetric maps one runtime/metrics name (with fallbacks for
// renamed metrics across Go releases) onto registry instruments.
type runtimeMetric struct {
	names []string // first available name wins
	apply func(w *Watcher, v metrics.Value)
}

var wanted = []runtimeMetric{
	{
		names: []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"},
		apply: func(w *Watcher, v metrics.Value) {
			h := v.Float64Histogram()
			w.gcPauseP50.Set(histQuantile(h, 0.50) * 1e9)
			w.gcPauseP99.Set(histQuantile(h, 0.99) * 1e9)
		},
	},
	{
		names: []string{"/sched/latencies:seconds"},
		apply: func(w *Watcher, v metrics.Value) {
			h := v.Float64Histogram()
			w.schedP50.Set(histQuantile(h, 0.50) * 1e9)
			w.schedP99.Set(histQuantile(h, 0.99) * 1e9)
		},
	},
	{
		names: []string{"/sched/goroutines:goroutines"},
		apply: func(w *Watcher, v metrics.Value) { w.goroutines.Set(float64(v.Uint64())) },
	},
	{
		names: []string{"/memory/classes/heap/objects:bytes"},
		apply: func(w *Watcher, v metrics.Value) { w.heapLive.Set(float64(v.Uint64())) },
	},
	{
		names: []string{"/memory/classes/total:bytes"},
		apply: func(w *Watcher, v metrics.Value) { w.memTotal.Set(float64(v.Uint64())) },
	},
	{
		names: []string{"/gc/cycles/total:gc-cycles"},
		apply: func(w *Watcher, v metrics.Value) {
			n := int64(v.Uint64())
			if d := n - w.prevGC; d > 0 && w.prevGC >= 0 {
				w.gcCycles.Add(d)
			} else if w.prevGC < 0 {
				w.gcCycles.Add(n)
			}
			w.prevGC = n
		},
	},
	{
		names: []string{"/sync/mutex/wait/total:seconds"},
		apply: func(w *Watcher, v metrics.Value) { w.mutexWait.Set(v.Float64()) },
	},
}

// Watcher polls runtime health into a registry.  Poll is the unit of
// work (call it from tests for deterministic coverage); Start/Stop run
// it on a cadence for daemons.
type Watcher struct {
	reg     *obs.Registry
	samples []metrics.Sample
	applies []func(w *Watcher, v metrics.Value)

	gcPauseP50, gcPauseP99 *obs.Gauge
	schedP50, schedP99     *obs.Gauge
	goroutines             *obs.Gauge
	heapLive, memTotal     *obs.Gauge
	mutexWait              *obs.Gauge
	gcCycles               *obs.Counter

	prevGC int64

	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
}

// New builds a watcher over reg, registering its metric families.
func New(reg *obs.Registry) *Watcher {
	w := &Watcher{reg: reg, prevGC: -1}
	describe := func(name, help string) *obs.Gauge {
		reg.Describe(name, help)
		return reg.Gauge(name)
	}
	w.gcPauseP50 = describe("runtime_gc_pause_p50_ns", "GC stop-the-world pause p50 (cumulative distribution), nanoseconds.")
	w.gcPauseP99 = describe("runtime_gc_pause_p99_ns", "GC stop-the-world pause p99 (cumulative distribution), nanoseconds.")
	w.schedP50 = describe("runtime_sched_latency_p50_ns", "Goroutine scheduling latency p50 (cumulative distribution), nanoseconds.")
	w.schedP99 = describe("runtime_sched_latency_p99_ns", "Goroutine scheduling latency p99 (cumulative distribution), nanoseconds.")
	w.goroutines = describe("runtime_goroutines", "Live goroutine count.")
	w.heapLive = describe("runtime_heap_live_bytes", "Bytes of live heap objects.")
	w.memTotal = describe("runtime_mem_total_bytes", "Total bytes of memory mapped by the Go runtime.")
	w.mutexWait = describe("runtime_mutex_wait_seconds", "Cumulative seconds goroutines have waited on contended mutexes.")
	reg.Describe("runtime_gc_cycles_total", "Completed GC cycles since the watcher started.")
	w.gcCycles = reg.Counter("runtime_gc_cycles_total")

	available := make(map[string]bool)
	for _, d := range metrics.All() {
		available[d.Name] = true
	}
	for _, m := range wanted {
		for _, name := range m.names {
			if available[name] {
				w.samples = append(w.samples, metrics.Sample{Name: name})
				w.applies = append(w.applies, m.apply)
				break
			}
		}
	}
	return w
}

// Poll reads one round of runtime metrics into the registry.
func (w *Watcher) Poll() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.samples) > 0 {
		metrics.Read(w.samples)
		for i := range w.samples {
			w.applies[i](w, w.samples[i].Value)
		}
	}
}

// Start launches the polling loop (idempotent until Stop).
func (w *Watcher) Start(interval time.Duration) {
	if w == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	w.mu.Lock()
	if w.stop != nil {
		w.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	w.stop = stop
	w.mu.Unlock()
	w.stopped.Add(1)
	go func() {
		defer w.stopped.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.Poll()
			}
		}
	}()
}

// Stop halts the polling loop.
func (w *Watcher) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	stop := w.stop
	w.stop = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		w.stopped.Wait()
	}
}

// histQuantile reads an approximate quantile off a runtime/metrics
// cumulative histogram, returning the covering bucket's upper edge
// (conservative for tail quantiles).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target && c > 0 {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				lo := h.Buckets[i]
				if math.IsInf(lo, -1) {
					return 0
				}
				return lo
			}
			return hi
		}
	}
	return 0
}
