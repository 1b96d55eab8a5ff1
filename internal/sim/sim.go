// Package sim is a small discrete-event simulation engine: a clock and a
// time-ordered event heap with deterministic tie-breaking.  The experiment
// harness drives job arrivals, QoS negotiations and completion callbacks
// through it (Section 5.3's synthetic task system).
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// event is a scheduled callback.  Events fire in (time, schedule-order)
// order; two events at the same instant fire in the order they were
// scheduled, making runs reproducible.
type event struct {
	time float64
	name string
	fn   func()
	seq  int64
}

// Engine owns the clock and the pending-event heap.  The zero value is
// ready to use and starts at time 0.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64

	// Processed counts events fired since creation.
	Processed int

	// OnEvent, if non-nil, observes every fired event just before its
	// callback runs, with the event's name and time.  The nil default
	// costs a single pointer comparison per event (the observability
	// layer's zero-cost contract; see internal/obs).
	OnEvent func(name string, t float64)
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t (>= Now).  Scheduling into the
// past panics: it indicates a causality bug in the model, not a
// recoverable condition.
func (e *Engine) At(t float64, name string, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, t, e.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling %q at NaN", name))
	}
	heap.Push(&e.events, &event{time: t, name: name, fn: fn, seq: e.seq})
	e.seq++
}

// Arrive schedules n "arrival" events, the i-th at at(i) (nondecreasing
// in i), each calling fn(i).  Arrival i+1 is scheduled only once fn(i) has
// returned, so an event fn(i) schedules at arrival i+1's instant fires
// before it: a completion lands before a later arrival at the same time.
func (e *Engine) Arrive(n int, at func(i int) float64, fn func(i int)) {
	var next func(i int)
	next = func(i int) {
		if i < n {
			e.At(at(i), "arrival", func() {
				fn(i)
				next(i + 1)
			})
		}
	}
	next(0)
}

// step fires the next event, if any, and reports whether one fired.
func (e *Engine) step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.time
		e.Processed++
		if e.OnEvent != nil {
			e.OnEvent(ev.name, ev.time)
		}
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the heap is empty, returning the number of events
// fired by this call.
func (e *Engine) Run() int {
	n := 0
	for e.step() {
		n++
	}
	return n
}

// eventHeap orders by (Time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
