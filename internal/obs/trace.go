package obs

import "sync"

// EventType names a structured trace event.  The admission types are the
// arbitrator's decisions (Section 3 of the paper); the Step* types cover the
// Calypso runtime; EventFired covers the sim engine.
type EventType string

const (
	// evCommitted records a job's reservation being committed.
	evCommitted EventType = "Committed"
	// evRejected records a job failing admission; Reason says why.
	evRejected EventType = "Rejected"
	// evStepStart marks a Calypso parallel step beginning.
	evStepStart EventType = "StepStart"
	// evStepDone marks a Calypso parallel step completing (or failing).
	evStepDone EventType = "StepDone"
	// evWorkerFault records an injected or observed worker fault.
	evWorkerFault EventType = "WorkerFault"
	// evEventFired records one discrete-event simulation callback firing.
	evEventFired EventType = "EventFired"
)

// Event is one structured trace record.  Time is monotonic sim-or-wall
// time: simulation clock when the emitting Observer is bound to a sim
// engine, seconds since Observer creation otherwise.
type Event struct {
	Time   float64            `json:"t"`
	Type   EventType          `json:"type"`
	Job    int                `json:"job,omitempty"`
	Chain  int                `json:"chain,omitempty"`
	Worker int                `json:"worker,omitempty"`
	Reason string             `json:"reason,omitempty"`
	Name   string             `json:"name,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	// Trace/Span tie the event to the span-propagated request trace that
	// produced it (see span.go).  Zero means "untraced".
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// ringSink retains the most recent events in a fixed-capacity ring buffer
// (a mutex-guarded Ring[Event] — see ring.go for the eviction contract).
// When the ring wraps, the oldest events are evicted — never reordered —
// and the eviction is accounted in the ring's Dropped rather than
// silently overwritten: events() always returns a contiguous,
// emission-ordered suffix of the full stream.
type ringSink struct {
	mu   sync.Mutex
	ring *Ring[Event]
}

// newRingSink returns a ring buffer holding up to n events (n >= 1).
func newRingSink(n int) *ringSink {
	return &ringSink{ring: NewRing[Event](n)}
}

// Emit appends an event, evicting the oldest when full (counted in
// Dropped).
func (r *ringSink) Emit(ev Event) {
	r.mu.Lock()
	r.ring.Push(ev)
	r.mu.Unlock()
}

// events returns the retained events in emission order (oldest first).
func (r *ringSink) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Items()
}
