// Package forensics is the admission-forensics layer: it retains the
// rejection explanations the core planner emits (core.PlanDiagnosis),
// exposes them to operators over the debug mux (/explain) and serializes
// them as JSONL for offline analysis.  It closes the loop the paper's
// tunability story needs: every "no" the admission plane says comes with a
// machine-checkable reason and a verified counterfactual that would have
// turned it into a "yes".
//
// The Recorder is passive and opt-in: it is wired into the planner via
// core.Options.Diagnosis (Record), so a scheduler without a recorder pays
// nothing, and a scheduler with one pays only on the failure path.
package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"milan/internal/core"
	"milan/internal/obs"
)

// Record is one retained rejection: the planner's diagnosis plus the
// recorder's own envelope (sequence number, capture time, and — when the
// closed loop has run — whether the diagnosis's suggestion was verified
// to admit the job).
type Record struct {
	// Seq is the 1-based capture sequence number (monotone across the
	// recorder's lifetime, including evicted records).
	Seq int64 `json:"seq"`
	// At is the capture time on the recorder's clock (virtual time when
	// driven by the simulator, seconds since recorder creation otherwise).
	At float64 `json:"at"`
	// Diag is the planner's rejection explanation.
	Diag *core.PlanDiagnosis `json:"diag"`
	// Verified, when non-nil, reports whether replaying Diag.Suggestion
	// via WhatIf admitted the job (set by MarkVerified).
	Verified *bool `json:"verified,omitempty"`
}

// Recorder retains the most recent rejection diagnoses in a bounded ring
// (obs.Ring), with a per-job index for O(1) "explain this job" lookups.
// All methods are safe for concurrent use; Record may be installed as the sink of
// schedulers running under different locks (e.g. every shard of a
// federated plane).
type Recorder struct {
	mu    sync.Mutex
	clock func() float64
	ring  *obs.Ring[*Record]
	byJob map[int]*Record
	seq   int64
}

// defaultRingSize is the retention ring capacity when NewRecorder is
// given a non-positive size.
const defaultRingSize = 1024

// NewRecorder returns a recorder retaining up to n diagnoses (n <= 0
// selects defaultRingSize).  The default clock is wall time in seconds
// since creation; simulators override it with SetClock.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = defaultRingSize
	}
	start := time.Now()
	return &Recorder{
		clock: func() float64 { return time.Since(start).Seconds() },
		ring:  obs.NewRing[*Record](n),
		byJob: make(map[int]*Record, n),
	}
}

// SetClock replaces the recorder's time source (e.g. the simulator's
// virtual clock).  A nil clock is ignored.
func (r *Recorder) SetClock(clock func() float64) {
	if clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Record retains one diagnosis.  Nil diagnoses are ignored.
func (r *Recorder) Record(d *core.PlanDiagnosis) {
	if r == nil || d == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	rec := &Record{Seq: r.seq, At: r.clock(), Diag: d}
	if ev, ok := r.ring.Push(rec); ok {
		// Unlink the evicted record from the per-job index, but only if
		// the index still points at it (a newer record for the same job
		// must survive).
		if cur, live := r.byJob[ev.Diag.JobID]; live && cur == ev {
			delete(r.byJob, ev.Diag.JobID)
		}
	}
	r.byJob[d.JobID] = rec
	r.mu.Unlock()
}

// MarkVerified records the closed-loop outcome for the job's latest
// retained diagnosis: ok means replaying the suggestion via WhatIf
// admitted the job.  It reports whether a record for the job was found.
func (r *Recorder) MarkVerified(jobID int, ok bool) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, found := r.byJob[jobID]
	if !found {
		return false
	}
	v := ok
	rec.Verified = &v
	return true
}

// LastFor returns a copy of the latest retained record for the job (the
// Diag pointer is shared; diagnoses are immutable once emitted).
func (r *Recorder) LastFor(jobID int) (Record, bool) {
	if r == nil {
		return Record{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.byJob[jobID]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Records returns copies of the retained records, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	items := r.ring.Items()
	out := make([]Record, len(items))
	for i, rec := range items {
		out[i] = *rec
	}
	return out
}

// Total returns the number of diagnoses ever recorded.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many records were evicted because the ring wrapped.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// WriteJSONL writes the retained records as a rejections artifact: the
// header, then one record line per record, oldest first.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	aw := obs.NewArtifactWriter(w)
	aw.Header(obs.ArtifactRejections, nil)
	for _, rec := range r.Records() {
		aw.Line("record", rec)
	}
	return aw.Flush()
}

// handler serves the /explain endpoint: with ?job=ID, the latest retained
// diagnosis for that job as indented JSON (404 when none is retained);
// without, the whole retention ring as a rejections artifact.
func (r *Recorder) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if q := req.URL.Query().Get("job"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad job id %q: %v", q, err), http.StatusBadRequest)
				return
			}
			rec, ok := r.LastFor(id)
			if !ok {
				http.Error(w, fmt.Sprintf("no diagnosis retained for job %d", id), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rec)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		r.WriteJSONL(w)
	})
}

// Mount attaches the recorder to an Observer's debug endpoint at
// /explain.  Nil recorder or observer is a no-op.
func (r *Recorder) Mount(o *obs.Observer) {
	if r == nil || o == nil {
		return
	}
	o.Handle("/explain", r.handler(), "latest rejection diagnoses (?job=ID for one job, bare for JSONL)")
}
