package slo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"milan/internal/obs"
)

// TriggerKind names the anomaly that cut a flight-recorder snapshot.
type TriggerKind string

const (
	// TriggerDeadlineMiss: an admitted job finished past its deadline —
	// the hard invariant broke.
	TriggerDeadlineMiss TriggerKind = "deadline-miss"
	// TriggerOverAdmission: admission produced a reservation already
	// past the job's deadline (planner fault by construction).
	TriggerOverAdmission TriggerKind = "over-admission"
	// TriggerFairnessBreach: the admission shedder broke a fairness
	// invariant — weighted class shares diverged, a shed skipped a
	// higher class, or an under-quota tenant starved past the bounded
	// window (shedder fault by construction).
	TriggerFairnessBreach TriggerKind = "fairness-breach"
	// TriggerCapacityDrift: the plane's total capacity stopped matching
	// the resource pool — processors were lost or duplicated by
	// broker-driven resizes (capacity fault by construction).
	TriggerCapacityDrift TriggerKind = "capacity-drift"
	// TriggerMaskingLoss: the fault-masking runtime lost committed work —
	// a task's writes never reached the store despite the crash budget
	// (runtime fault by construction).
	TriggerMaskingLoss TriggerKind = "masking-loss"
	// triggerLatencyRegression: an admission phase's live latency burned
	// the committed baseline envelope on both windows — the regression
	// sentinel caught the plane getting slower than its benchmarked self.
	triggerLatencyRegression TriggerKind = "latency-regression"
	// TriggerManual: an operator-requested snapshot.
	TriggerManual TriggerKind = "manual"
)

// Snapshot is one self-contained flight-recorder dump: the trigger plus
// every span and decision event the tracer's and the observer's rings
// held at cut time.
// It is written as a flight artifact (obs.ReadArtifact): one trigger line
// (the exported fields below), then one line per span and per event; it
// round-trips through DecodeSnapshot, so a snapshot written in production
// replays anywhere.
type Snapshot struct {
	Kind  TriggerKind `json:"kind"`
	Trace uint64      `json:"trace,omitempty"`
	At    float64     `json:"at"`
	Note  string      `json:"note,omitempty"`

	Spans  []obs.SpanRec `json:"-"`
	Events []obs.Event   `json:"-"`
}

// WriteJSONL writes the snapshot as a flight artifact: the header, then
// the snapshot's lines.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	aw := obs.NewArtifactWriter(w)
	aw.Header(obs.ArtifactFlight, nil)
	s.WriteLines(aw)
	return aw.Flush()
}

// WriteLines writes the snapshot's artifact lines, the part a breach
// artifact embeds: the trigger, then the spans, then the events.
func (s *Snapshot) WriteLines(aw *obs.ArtifactWriter) {
	aw.Line("trigger", s)
	for i := range s.Spans {
		aw.Line("span", &s.Spans[i])
	}
	for i := range s.Events {
		aw.Line("event", &s.Events[i])
	}
}

// DecodeSnapshot reads a flight artifact back (the round trip of
// WriteJSONL).
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if _, err := obs.ReadArtifact(r, obs.ArtifactFlight, s.DecodeLine); err != nil {
		return nil, err
	}
	if s.Kind == "" {
		return nil, errors.New("slo: flight artifact without a trigger line")
	}
	return &s, nil
}

// DecodeLine folds one of the snapshot's artifact lines into s: the one
// trigger line, then span and event lines.
func (s *Snapshot) DecodeLine(tag string, raw []byte) error {
	switch {
	case tag == "trigger" && s.Kind != "":
		return errors.New("a second trigger line")
	case tag == "trigger":
		err := json.Unmarshal(raw, s)
		if err == nil && s.Kind == "" {
			err = errors.New("a trigger without a kind")
		}
		return err
	case s.Kind == "":
		return fmt.Errorf("a %s line before the trigger line", tag)
	case tag == "span":
		s.Spans = append(s.Spans, obs.SpanRec{})
		return json.Unmarshal(raw, &s.Spans[len(s.Spans)-1])
	case tag == "event":
		s.Events = append(s.Events, obs.Event{})
		return json.Unmarshal(raw, &s.Events[len(s.Events)-1])
	}
	return fmt.Errorf("no %q line in a snapshot", tag)
}

// Recorder is the anomaly-triggered flight recorder: Trigger freezes the
// tracer's span ring and the observer's event ring into a Snapshot.  It
// keeps no ring of its own, only its triggers, their cooldown and the
// snapshots.  All methods are safe for concurrent use and safe on a nil
// receiver.
type Recorder struct {
	tracer   *obs.Tracer
	observer *obs.Observer

	mu       sync.Mutex
	snaps    []*Snapshot
	maxSnaps int
	triggers int64
	// cooldown suppresses a second snapshot for the same trigger kind
	// within this many clock units of the previous one (0 = none).
	cooldown float64
	lastCut  map[TriggerKind]float64
}

// NewRecorder returns a recorder whose snapshots copy t's span ring and
// o's event ring (either may be nil: its part of a snapshot stays empty),
// retaining at most 16 snapshots.
func NewRecorder(t *obs.Tracer, o *obs.Observer) *Recorder {
	return &Recorder{
		tracer:   t,
		observer: o,
		maxSnaps: 16,
		lastCut:  make(map[TriggerKind]float64),
	}
}

// SetCooldown suppresses repeat snapshots of the same trigger kind within
// d clock units (e.g. one deadline-miss dump per minute, not one per
// missed job in a burst).
func (r *Recorder) SetCooldown(d float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cooldown = d
	r.mu.Unlock()
}

// Trigger freezes the source rings into a snapshot for the given anomaly.
// Returns nil on a nil recorder or when suppressed by the cooldown.
func (r *Recorder) Trigger(kind TriggerKind, trace uint64, now float64, note string) *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cooldown > 0 {
		if last, ok := r.lastCut[kind]; ok && now-last < r.cooldown && now >= last {
			return nil
		}
	}
	r.lastCut[kind] = now
	r.triggers++
	snap := &Snapshot{Kind: kind, Trace: trace, At: now, Note: note, Spans: r.tracer.Spans()}
	if r.observer != nil {
		snap.Events = r.observer.Events()
	}
	r.snaps = append(r.snaps, snap)
	if len(r.snaps) > r.maxSnaps {
		r.snaps = r.snaps[len(r.snaps)-r.maxSnaps:]
	}
	return snap
}

// Snapshots returns the retained snapshots, oldest first.
func (r *Recorder) Snapshots() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Snapshot(nil), r.snaps...)
}

// Last returns the most recent snapshot, or nil.
func (r *Recorder) Last() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snaps) == 0 {
		return nil
	}
	return r.snaps[len(r.snaps)-1]
}

// Len returns how many snapshots are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.snaps)
}

// handler serves the latest snapshot as a flight artifact download (404
// when none).
func (r *Recorder) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Last()
		if snap == nil {
			http.Error(w, "no flight-recorder snapshot", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="flight.jsonl"`)
		snap.WriteJSONL(w)
	})
}
