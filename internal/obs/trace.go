package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventType names a structured trace event.  The admission types mirror the
// stages of the greedy heuristic (Section 5.2 of the paper); the Step*
// types cover the Calypso runtime; EventFired covers the sim engine.
type EventType string

const (
	// EvAdmitStart marks the start of admission control for one job.
	EvAdmitStart EventType = "AdmitStart"
	// EvChainTried records one execution path's feasibility check.
	EvChainTried EventType = "ChainTried"
	// EvHolesProbed records how many placement probes (maximal-hole or
	// profile-segment queries) one chain's placement issued.
	EvHolesProbed EventType = "HolesProbed"
	// EvTieBreak records a later chain displacing the incumbent best.
	EvTieBreak EventType = "TieBreak"
	// EvCommitted records a job's reservation being committed.
	EvCommitted EventType = "Committed"
	// EvRejected records a job failing admission; Reason says why.
	EvRejected EventType = "Rejected"
	// EvRenegotiated records a placement moved by a capacity change.
	EvRenegotiated EventType = "Renegotiated"
	// EvAborted records a job evicted by a capacity change.
	EvAborted EventType = "Aborted"
	// EvStepStart marks a Calypso parallel step beginning.
	EvStepStart EventType = "StepStart"
	// EvStepDone marks a Calypso parallel step completing (or failing).
	EvStepDone EventType = "StepDone"
	// EvWorkerFault records an injected or observed worker fault.
	EvWorkerFault EventType = "WorkerFault"
	// EvEventFired records one discrete-event simulation callback firing.
	EvEventFired EventType = "EventFired"
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

// TraceSink receives structured events.  Implementations must be safe for
// concurrent use; Emit should be cheap (callers sit on hot paths).
type TraceSink interface {
	Emit(Event)
}

// RingSink retains the most recent events in a fixed-capacity ring buffer
// (a mutex-guarded Ring[Event] — see ring.go for the eviction contract).
// When the ring wraps, the oldest events are evicted — never reordered —
// and the eviction is accounted in Dropped rather than silently
// overwritten: Events() always returns a contiguous, emission-ordered
// suffix of the full stream, and Total() == Dropped() + len(Events()).
type RingSink struct {
	mu   sync.Mutex
	ring *Ring[Event]
}

// NewRingSink returns a ring buffer holding up to n events (n >= 1).
func NewRingSink(n int) *RingSink {
	return &RingSink{ring: NewRing[Event](n)}
}

// Emit appends an event, evicting the oldest when full (counted in
// Dropped).
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	r.ring.Push(ev)
	r.mu.Unlock()
}

// Events returns the retained events in emission order (oldest first).
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Items()
}

// Total returns the number of events ever emitted (including evicted ones).
func (r *RingSink) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many events were evicted from the ring because it
// wrapped.  Total() - Dropped() equals the number of retained events.
func (r *RingSink) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// JSONLSink writes each event as one JSON line.  Writes are buffered;
// call Flush (or Close) before reading the underlying writer.
type JSONLSink struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  io.Closer // optional
	e  error     // first write error, sticky
}

// NewJSONLSink returns a sink writing JSON lines to w.  If w is also an
// io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one event line.  Errors are sticky and reported by Flush.
func (s *JSONLSink) Emit(ev Event) {
	b, err := json.Marshal(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.e == nil {
			s.e = err
		}
		return
	}
	if s.e == nil {
		if _, err := s.bw.Write(append(b, '\n')); err != nil {
			s.e = err
		}
	}
}

// Flush flushes buffered lines and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.e == nil {
		s.e = err
	}
	return s.e
}

// Close flushes and closes the underlying writer when it is a Closer.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadJSONL parses a JSONL event stream back into events (the round-trip
// of JSONLSink output).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	err := Lines(r, "obs: jsonl", func(raw []byte) error {
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return err
		}
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiSink fans events out to every sink.
type MultiSink []TraceSink

// Emit forwards the event to every sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(ev)
		}
	}
}
