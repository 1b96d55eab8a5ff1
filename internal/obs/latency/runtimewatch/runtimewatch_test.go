package runtimewatch

import (
	"runtime"
	"testing"
	"time"

	"milan/internal/obs"
)

func TestPollPopulatesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(reg)
	// Force a GC so cumulative GC metrics are non-trivial, and some heap
	// traffic so live bytes are nonzero.
	runtime.GC()
	w.Poll()
	runtime.GC()
	w.Poll()

	s := reg.Snapshot()
	if g, ok := s.Gauges["runtime_goroutines"]; !ok || g < 1 {
		t.Fatalf("runtime_goroutines = %v (present=%v)", g, ok)
	}
	if g, ok := s.Gauges["runtime_heap_live_bytes"]; !ok || g <= 0 {
		t.Fatalf("runtime_heap_live_bytes = %v (present=%v)", g, ok)
	}
	if g, ok := s.Gauges["runtime_mem_total_bytes"]; !ok || g <= 0 {
		t.Fatalf("runtime_mem_total_bytes = %v (present=%v)", g, ok)
	}
	if c, ok := s.Counters["runtime_gc_cycles_total"]; !ok || c < 1 {
		t.Fatalf("runtime_gc_cycles_total = %v (present=%v): a forced GC between polls must show", c, ok)
	}
}

func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(reg)
	w.Start(time.Millisecond)
	w.Start(time.Millisecond) // idempotent
	time.Sleep(10 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
	if g := reg.Snapshot().Gauges["runtime_goroutines"]; g < 1 {
		t.Fatalf("polling loop never ran (goroutines=%v)", g)
	}
	// Restart after stop works.
	w.Start(time.Millisecond)
	w.Stop()
}

func TestNilWatcherSafe(t *testing.T) {
	var w *Watcher
	w.Poll()
	w.Start(time.Millisecond)
	w.Stop()
}
