package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

// Span-propagated request tracing.
//
// A TraceID is minted once per admission request — by whoever owns the
// request's lifecycle and sees it first: a client, the qosnet server, the
// experiment loop — and threaded through every stage the request touches
// (route → plan → reserve → run → finish) as plain uint64 fields on
// core.Job / qos.Grant.  The owner opens the request's arrival span and
// hands the admission path nothing but a phase.Rec; when the decision is
// back, ActiveSpan.EndAdmission renders the finished record as the arrival
// span's children, so the admission packages never see a Tracer.  The full
// lifecycle of one job is then reconstructable as a span tree
// (BuildSpanTrees).
//
// The whole layer honors the observability contract of this package: a nil
// *Tracer is a valid receiver for every method, all of which no-op, so an
// untraced hot path pays one pointer comparison.

// TraceID identifies one request's span tree.  Zero means "untraced".
type TraceID uint64

// SpanID identifies one span within the process.  Zero means "no span".
type SpanID uint64

// Lifecycle stage names used by the built-in plumbing (the order of a
// request's life: arrival → route → plan → reserve → run → finish).
const (
	StageArrival = "arrival" // request received / job released
	StageRoute   = "route"   // federated router choosing a shard
	StagePlan    = "plan"    // scheduler feasibility + placement planning
	StageReserve = "reserve" // committing the reservation
	StageRun     = "run"     // runtime execution of the reservation
)

// SpanRec is one completed span: a named interval of one request's
// lifecycle.  Times are in the tracer's clock domain (simulation seconds
// when bound to a sim engine, wall seconds since tracer creation otherwise).
type SpanRec struct {
	Trace  TraceID            `json:"trace"`
	ID     SpanID             `json:"id"`
	Parent SpanID             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Stage  string             `json:"stage"`
	Job    int                `json:"job,omitempty"`
	Start  float64            `json:"start"`
	End    float64            `json:"end"`
	Err    string             `json:"err,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Tracer mints trace/span IDs and retains completed spans in a bounded
// ring.  All methods are safe for concurrent use and safe on a nil
// receiver (no-ops returning zero values).
type Tracer struct {
	traces atomic.Uint64
	ids    atomic.Uint64
	smp    atomic.Pointer[sampler]

	mu    sync.Mutex
	clock func() float64
	epoch int64 // phase.NowNanos at creation: the zero of the wall clock domain
	born  int64 // wall-clock Unix ns at creation: the process epoch /spans serves
	ring  *Ring[SpanRec]
}

// NewTracer returns a tracer retaining up to capacity completed spans
// (capacity < 1 means 8192).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 8192
	}
	return &Tracer{ring: NewRing[SpanRec](capacity), epoch: phase.NowNanos(), born: time.Now().UnixNano()}
}

// SetClock rebinds the tracer's timestamp source (e.g. a sim engine's Now).
func (t *Tracer) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

func (t *Tracer) now() float64 {
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	if clock != nil {
		return clock()
	}
	return t.wallAt(phase.NowNanos())
}

// wallAt places a reading of the phase records' monotonic clock in the
// tracer's wall clock domain (seconds since the tracer was created).
func (t *Tracer) wallAt(mono int64) float64 { return float64(mono-t.epoch) / 1e9 }

// NewTrace mints a fresh trace ID, or 0 — the untraced fast path — when
// head-based sampling (SetSampling) rejects the request.
func (t *Tracer) NewTrace() TraceID {
	if t == nil {
		return 0
	}
	if s := t.smp.Load(); s != nil && !s.admit(t.now()) {
		return 0
	}
	return TraceID(t.traces.Add(1))
}

// ActiveSpan is an in-flight span.  A nil *ActiveSpan is a valid receiver
// for every method (the untraced fast path).
type ActiveSpan struct {
	t   *Tracer
	rec SpanRec
	mu  sync.Mutex
}

// Start opens a span under the given trace and parent.  It returns nil —
// still safe to use — when the tracer is nil or trace is zero.
func (t *Tracer) Start(trace TraceID, parent SpanID, name, stage string, job int) *ActiveSpan {
	if t == nil || trace == 0 {
		return nil
	}
	return t.StartAt(trace, parent, name, stage, job, t.now())
}

// StartAt is Start with an explicit start timestamp (e.g. a reservation's
// scheduled start rather than the moment the span object was created).
func (t *Tracer) StartAt(trace TraceID, parent SpanID, name, stage string, job int, start float64) *ActiveSpan {
	if t == nil || trace == 0 {
		return nil
	}
	return &ActiveSpan{t: t, rec: SpanRec{
		Trace:  trace,
		ID:     SpanID(t.ids.Add(1)),
		Parent: parent,
		Name:   name,
		Stage:  stage,
		Job:    job,
		Start:  start,
	}}
}

// ID returns the span's ID (zero on the untraced path).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// Trace returns the span's trace ID (zero on the untraced path).
func (s *ActiveSpan) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// SetAttr records one numeric attribute on the span.
func (s *ActiveSpan) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]float64, 4)
	}
	s.rec.Attrs[key] = v
	s.mu.Unlock()
}

// SetErr marks the span as failed with the given reason.
func (s *ActiveSpan) SetErr(reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Err = reason
	s.mu.Unlock()
}

// End completes the span at the tracer's current clock and records it.
// Like EndAt, ending twice is a no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	t := s.t
	s.mu.Unlock()
	if t == nil { // already ended
		return
	}
	s.EndAt(t.now())
}

// EndAt completes the span at an explicit timestamp and records it.
// Ending a span twice records it once (subsequent calls no-op).
func (s *ActiveSpan) EndAt(end float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.t == nil { // already ended
		s.mu.Unlock()
		return
	}
	t := s.t
	s.t = nil
	s.rec.End = end
	rec := s.rec
	s.mu.Unlock()
	t.record(rec)
}

// admissionSpans names the child span each admission phase is rendered as.
// The stage is the phase's own name, except that a router's probes are
// planning: arrival → route → plan → reserve reads the same at every shard
// count, and journal and ack follow under their own names.
var admissionSpans = func() (out [phase.Num]struct{ name, stage string }) {
	for ph, name := range phase.Names() {
		out[ph].name, out[ph].stage = "admit."+name, name
	}
	out[phase.Probe].stage = StagePlan
	return out
}()

// EndAdmission ends s — the arrival span of a request whose negotiation
// returned (g, err) — as the rendering of the request's finished phase
// record, the one place admission spans come from.  The arrival span takes
// the record's extent, the grant's deciding shard, chosen chain and reserved
// finish, or the error; under it goes one child per phase that took time,
// in waterfall order and laid end to end, so the children's durations are
// the record's Durs (the numbers of the request's /latency exemplar) and sum
// to the arrival span exactly.  Under a bound clock (SetClock: simulation
// time, in which an admission takes none) the arrival span keeps the start
// it was opened with and it and its children end at the clock's reading.
// Like End, a no-op on the untraced path and on a span already ended.
func (s *ActiveSpan) EndAdmission(rec *phase.Rec, g *qos.Grant, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	t, root := s.t, s.rec
	s.t = nil
	s.mu.Unlock()
	if t == nil { // already ended
		return
	}
	if g != nil {
		if root.Attrs == nil {
			root.Attrs = make(map[string]float64, 4)
		}
		root.Attrs["shard"], root.Attrs["chain"], root.Attrs["finish"] = float64(g.Shard), float64(g.Chain), g.Finish()
	}
	if err != nil {
		root.Err = err.Error()
	}
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	at := t.wallAt
	if clock != nil {
		now := clock()
		at = func(int64) float64 { return now }
	} else {
		root.Start = at(rec.Began())
	}
	root.End = at(rec.Began() + rec.Total())

	spans := make([]SpanRec, 0, phase.Num+1)
	cursor := rec.Began()
	for ph, d := range rec.Durs() {
		if d <= 0 {
			continue
		}
		spans = append(spans, SpanRec{
			Trace: root.Trace, ID: SpanID(t.ids.Add(1)), Parent: root.ID,
			Name: admissionSpans[ph].name, Stage: admissionSpans[ph].stage, Job: root.Job,
			Start: at(cursor), End: at(cursor + d),
		})
		cursor += d
	}
	t.record(append(spans, root)...)
}

// record appends completed spans to the ring (evicting the oldest when
// full, counted in Dropped).
func (t *Tracer) record(recs ...SpanRec) {
	t.mu.Lock()
	for i := range recs {
		t.ring.Push(recs[i])
	}
	t.mu.Unlock()
}

// Spans returns the retained completed spans in completion order (oldest
// first): the one span ring, which /spans serves and the flight recorder
// (slo.Recorder) copies when it cuts a snapshot.  A nil tracer returns nil.
func (t *Tracer) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Items()
}

// spansSince returns the retained spans completed after the first since —
// all of them when since is past the count or epoch is another tracer's
// (0 matches any), as for a restarted node — with the completed-span
// count and the tracer's epoch, read under one lock so the count ends
// exactly at the last span returned.
func (t *Tracer) spansSince(since, epoch int64) (spans []SpanRec, total, born int64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total = t.ring.Total()
	if since > total || (epoch != 0 && epoch != t.born) {
		since = 0
	}
	return t.ring.since(since), total, t.born
}

// SpanNode is one node of a reconstructed span tree.
type SpanNode struct {
	SpanRec
	Children []*SpanNode
}

// Walk visits the node and all descendants in depth-first order.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindStage returns the first descendant (depth-first, including the
// receiver) with the given stage, or nil.
func (n *SpanNode) FindStage(stage string) *SpanNode {
	var out *SpanNode
	n.Walk(func(m *SpanNode) {
		if out == nil && m.Stage == stage {
			out = m
		}
	})
	return out
}

// BuildSpanTrees reconstructs one span tree per trace from a flat span
// record list.  Spans whose parent is missing (evicted from the ring, or
// the root itself) become roots; a trace with several roots is wrapped
// under a synthetic root carrying the trace's full time extent.  Children
// are ordered by start time, then ID.
func BuildSpanTrees(recs []SpanRec) map[TraceID]*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(recs))
	byTrace := make(map[TraceID][]*SpanNode)
	for _, r := range recs {
		if r.Trace == 0 || r.ID == 0 {
			continue
		}
		n := &SpanNode{SpanRec: r}
		nodes[r.ID] = n
		byTrace[r.Trace] = append(byTrace[r.Trace], n)
	}
	out := make(map[TraceID]*SpanNode, len(byTrace))
	for trace, ns := range byTrace {
		var roots []*SpanNode
		for _, n := range ns {
			if p, ok := nodes[n.Parent]; ok && n.Parent != 0 && p.Trace == trace && p != n {
				p.Children = append(p.Children, n)
			} else {
				roots = append(roots, n)
			}
		}
		sortNodes := func(list []*SpanNode) {
			sort.Slice(list, func(a, b int) bool {
				if list[a].Start != list[b].Start {
					return list[a].Start < list[b].Start
				}
				return list[a].ID < list[b].ID
			})
		}
		for _, n := range ns {
			sortNodes(n.Children)
		}
		sortNodes(roots)
		switch len(roots) {
		case 0:
			continue
		case 1:
			out[trace] = roots[0]
		default:
			root := &SpanNode{SpanRec: SpanRec{
				Trace: trace, Name: "trace", Stage: StageArrival,
				Start: roots[0].Start, End: roots[0].End, Job: roots[0].Job,
			}, Children: roots}
			for _, r := range roots {
				if r.End > root.End {
					root.SpanRec.End = r.End
				}
			}
			out[trace] = root
		}
	}
	return out
}
