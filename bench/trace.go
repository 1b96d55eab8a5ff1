package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one request share
// Req (the job ID; -1 for a clock observation); Parent is the span that
// caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.End - s.Start }

// clientSpanID is the ID of job req's qosnet.client span, known to the
// server-side wrappers without anything extra crossing the wire.
func clientSpanID(req int64) uint64 { return 1<<62 | uint64(req) }

// tracer collects the spans and counts the seam wrappers in stack.go report.
// Spans stay in memory until the benchmark ends.  All methods are safe on a
// nil tracer, which records nothing.
type tracer struct {
	epoch     time.Time
	wireBytes atomic.Int64

	mu    sync.Mutex
	spans []span
	seq   uint64
	// open counts plane calls in flight; cur is the one a journal write
	// belongs to when it is the only one.
	open int
	cur  openSpan
	// snap is the compaction under way: id and req are its parent's.
	snap   openSpan
	snapOn bool
	dirs   int

	writes, syncs, walBytes int64
}

type openSpan struct {
	id    uint64
	req   int64
	name  string
	start int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

// reset forgets the warm-up's spans and counts.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.writes, t.syncs, t.walBytes = t.spans[:0], 0, 0, 0
	t.mu.Unlock()
	t.wireBytes.Store(0)
}

func (t *tracer) nextID() uint64 { t.seq++; return t.seq }

func (t *tracer) enterPlane(name string, req int64) openSpan {
	s := openSpan{req: req, name: name, start: t.since()}
	t.mu.Lock()
	s.id = t.nextID()
	t.open++
	t.cur = s
	t.mu.Unlock()
	return s
}

func (t *tracer) exitPlane(s openSpan) {
	end := t.since()
	sp := span{ID: s.id, Req: s.req, Name: s.name, Start: s.start, End: end}
	if s.req >= 0 {
		sp.Parent = clientSpanID(s.req)
	}
	t.mu.Lock()
	t.open--
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// parent is the plane call a journal operation runs under.  With two calls
// in flight the wrapper cannot tell which holds the plane, so the span goes
// unattributed.
func (t *tracer) parent() (uint64, int64) {
	if t.open == 1 {
		return t.cur.id, t.cur.req
	}
	return 0, -1
}

func (t *tracer) vfsOp(name string, start time.Time, bytes int) {
	end := t.since()
	t.mu.Lock()
	parent, req := t.parent()
	t.spans = append(t.spans, span{ID: t.nextID(), Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: end})
	if name == "vfs.sync" {
		t.syncs++
	} else {
		t.writes++
		t.walBytes += int64(bytes)
	}
	t.mu.Unlock()
}

func (t *tracer) snapshotBegin() {
	t.mu.Lock()
	parent, req := t.parent()
	t.snap, t.snapOn, t.dirs = openSpan{id: parent, req: req, start: t.since()}, true, 0
	t.mu.Unlock()
}

// snapshotSyncDir closes the snapshot span at the compaction's second
// directory sync, the one that publishes the fresh segment.
func (t *tracer) snapshotSyncDir() {
	end := t.since()
	t.mu.Lock()
	if t.snapOn {
		if t.dirs++; t.dirs == 2 {
			t.snapOn = false
			t.spans = append(t.spans, span{ID: t.nextID(), Parent: t.snap.id, Req: t.snap.req, Name: "durable.snapshot", Start: t.snap.start, End: end})
		}
	}
	t.mu.Unlock()
}

// clientSpans records a finished lap's client-side spans from the
// timestamps the load loop took anyway.
func (t *tracer) clientSpans(l *lap) {
	if t == nil {
		return
	}
	base := int64(l.start.Sub(t.epoch))
	t.mu.Lock()
	for i, job := range l.jobs {
		req := int64(job.ID)
		t.spans = append(t.spans, span{ID: clientSpanID(req), Req: req, Name: "qosnet.client", Start: base + l.sent[i], End: base + l.done[i]})
	}
	t.mu.Unlock()
}

// durations returns the named spans' lengths in nanoseconds.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ns())
		}
	}
	return out
}

// selfTimes returns, per request, the outer span's length minus the inner
// span's: the time the outer layer itself took.
func (t *tracer) selfTimes(outer, inner string) []int64 {
	in := map[int64]int64{}
	for _, s := range t.spans {
		if s.Name == inner && s.Req >= 0 {
			in[s.Req] = s.ns()
		}
	}
	var out []int64
	for _, s := range t.spans {
		if d, ok := in[s.Req]; ok && s.Name == outer {
			out = append(out, s.ns()-d)
		}
	}
	return out
}

// traceFileRequests caps the span file at the first requests of the pass;
// the metrics use every span.
const traceFileRequests = 10000

func (t *tracer) writeFile(path, workload string, first int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"workload": workload, "spans": len(t.spans), "written_requests": traceFileRequests})
	for _, s := range t.spans {
		if err != nil || s.Req >= first+traceFileRequests {
			continue
		}
		err = enc.Encode(s)
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
