package forensics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
)

// rejectedDiag builds a scheduler that rejects the given job and returns
// the planner's real diagnosis for it (so tests exercise genuine
// PlanDiagnosis shapes, not hand-built ones).
func rejectedDiag(t *testing.T, job core.Job) *core.PlanDiagnosis {
	t.Helper()
	var d *core.PlanDiagnosis
	s := core.NewScheduler(4, 0, &core.Options{Diagnosis: func(pd *core.PlanDiagnosis) { d = pd }})
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job %d unexpectedly planned", job.ID)
	}
	return d
}

func wideJob(id int) core.Job {
	return core.Job{ID: id, Chains: []core.Chain{{Tasks: []core.Task{{
		Procs: 8, Duration: 2, Deadline: 100,
	}}}}}
}

func TestRecorderRingAndByJobIndex(t *testing.T) {
	r := NewRecorder(2)
	now := 0.0
	r.SetClock(func() float64 { return now })
	for i := 1; i <= 3; i++ {
		now = float64(i)
		r.Record(rejectedDiag(t, wideJob(i)))
	}
	if len(r.Records()) != 2 || r.Total() != 3 || r.Dropped() != 1 {
		t.Fatalf("len=%d total=%d dropped=%d, want 2/3/1", len(r.Records()), r.Total(), r.Dropped())
	}
	// Job 1's record was evicted; its index entry must be unlinked.
	if _, ok := r.LastFor(1); ok {
		t.Fatalf("evicted job 1 still resolvable")
	}
	rec, ok := r.LastFor(3)
	if !ok || rec.Seq != 3 || rec.At != 3 || rec.Diag.JobID != 3 {
		t.Fatalf("LastFor(3) = %+v, %v", rec, ok)
	}
	// Re-recording a retained job must keep the newer index entry alive
	// even after the older record for the same job is evicted.
	now = 4
	r.Record(rejectedDiag(t, wideJob(3))) // evicts job 2's record
	now = 5
	r.Record(rejectedDiag(t, wideJob(9))) // evicts job 3's FIRST record
	if rec, ok = r.LastFor(3); !ok || rec.Seq != 4 {
		t.Fatalf("newer record for job 3 lost on eviction of the older one: %+v, %v", rec, ok)
	}
	if _, ok = r.LastFor(2); ok {
		t.Fatalf("evicted job 2 still resolvable")
	}

	// MarkVerified flips the retained record.
	if !r.MarkVerified(3, true) {
		t.Fatalf("MarkVerified(3) found no record")
	}
	if rec, _ = r.LastFor(3); rec.Verified == nil || !*rec.Verified {
		t.Fatalf("verified flag not set: %+v", rec)
	}
	if r.MarkVerified(777, true) {
		t.Fatalf("MarkVerified invented a record")
	}
}

// TestRecorderSinkAndMetrics wires the sink into a real scheduler and reads
// what the recorder reports back: the retained diagnoses with their causes
// and suggestions, the totals, and the closed-loop outcomes.
func TestRecorderSinkAndMetrics(t *testing.T) {
	r := NewRecorder(8)

	// Wire the sink into a real scheduler: only failures are recorded.
	s := core.NewScheduler(4, 0, &core.Options{Diagnosis: r.Record})
	if _, err := s.Admit(core.Job{ID: 1, Chains: []core.Chain{{Tasks: []core.Task{{
		Procs: 2, Duration: 5, Deadline: 100,
	}}}}}); err != nil {
		t.Fatal(err)
	}
	if r.Total() != 0 {
		t.Fatalf("admission recorded a diagnosis")
	}
	if _, err := s.Admit(wideJob(2)); err == nil {
		t.Fatalf("8-wide job admitted on a 4-wide machine")
	}
	// Deadline-bound rejection for cause diversity.
	if _, err := s.Admit(core.Job{ID: 3, Chains: []core.Chain{{Tasks: []core.Task{{
		Procs: 2, Duration: 5, Deadline: 3,
	}}}}}); err == nil {
		t.Fatalf("impossible-window job admitted")
	}
	if r.Total() != 2 {
		t.Fatalf("recorded %d diagnoses, want 2", r.Total())
	}
	causes := map[core.Constraint]int{}
	for _, rec := range r.Records() {
		if rec.Diag.Suggestion == nil {
			t.Fatalf("job %d: no suggestion (both rejections are relaxable)", rec.Diag.JobID)
		}
		causes[rec.Diag.Chains[0].Constraint]++
	}
	if causes[core.ConstraintWidth] != 1 || causes[core.ConstraintDeadline] != 1 {
		t.Fatalf("causes: %v, want one width and one deadline", causes)
	}
	if len(r.Records()) != 2 || r.Dropped() != 0 {
		t.Fatalf("retained %d, dropped %d; want 2, 0", len(r.Records()), r.Dropped())
	}
	r.MarkVerified(2, true)
	r.MarkVerified(3, false)
	for _, rec := range r.Records() {
		if want := rec.Diag.JobID == 2; rec.Verified == nil || *rec.Verified != want {
			t.Fatalf("job %d: verified = %v, want %v", rec.Diag.JobID, rec.Verified, want)
		}
	}
}

// decode reads a rejections artifact back through obs.ReadArtifact.
func decode(r io.Reader) ([]Record, error) {
	var out []Record
	_, err := obs.ReadArtifact(r, obs.ArtifactRejections, func(_ string, raw []byte) error {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	for i := 1; i <= 5; i++ {
		r.Record(rejectedDiag(t, wideJob(i)))
	}
	r.MarkVerified(4, true)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Records()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		gb, _ := json.Marshal(got[i])
		wb, _ := json.Marshal(want[i])
		if !bytes.Equal(gb, wb) {
			t.Fatalf("record %d round-trip mismatch:\n got  %s\n want %s", i, gb, wb)
		}
	}
	if got[3].Verified == nil || !*got[3].Verified {
		t.Fatalf("verified flag lost in round trip")
	}

	// A bare record is no artifact; an empty ring is a header alone.
	if _, err := decode(strings.NewReader(`{"seq":1,"at":0,"diag":{}}` + "\n")); err == nil {
		t.Fatalf("a bare record decoded")
	}
	buf.Reset()
	if err := NewRecorder(4).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if recs, err := decode(&buf); err != nil || len(recs) != 0 {
		t.Fatalf("empty ring: %v, %d records", err, len(recs))
	}
}

func TestExplainEndpoint(t *testing.T) {
	o := obs.New(obs.Config{})
	r := NewRecorder(8)
	r.Mount(o)
	h := o.Handler()

	d := rejectedDiag(t, wideJob(42))
	r.Record(d)

	// ?job=42 serves the retained diagnosis.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/explain?job=42", nil))
	if rw.Code != 200 {
		t.Fatalf("/explain?job=42: %d %s", rw.Code, rw.Body.String())
	}
	var rec Record
	if err := json.Unmarshal(rw.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Diag == nil || rec.Diag.JobID != 42 || rec.Diag.Suggestion == nil {
		t.Fatalf("served record: %+v", rec)
	}
	// The served suggestion must replay to an admission (the closed loop
	// an operator would run by hand).
	s := core.NewScheduler(4, 0, nil)
	if _, ok := s.WhatIf(wideJob(42), *rec.Diag.Suggestion); !ok {
		t.Fatalf("served suggestion %+v does not admit the job", *rec.Diag.Suggestion)
	}

	// Unknown job: 404.  Bad id: 400.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/explain?job=7", nil))
	if rw.Code != 404 {
		t.Fatalf("unknown job: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/explain?job=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("bad id: %d", rw.Code)
	}

	// Bare /explain streams the ring as a rejections artifact.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/explain", nil))
	if rw.Code != 200 || rw.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("bare /explain: %d %q", rw.Code, rw.Header().Get("Content-Type"))
	}
	recs, err := decode(rw.Body)
	if err != nil || len(recs) != 1 {
		t.Fatalf("JSONL dump: %v, %d records", err, len(recs))
	}

	// Endpoint index lists the mount.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rw.Body.String(), "/explain") {
		t.Fatalf("index does not list /explain: %s", rw.Body.String())
	}
}
