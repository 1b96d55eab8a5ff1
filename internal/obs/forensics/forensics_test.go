package forensics

import (
	"bytes"
	"encoding/json"
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
	s := core.NewScheduler(4, 0, nil)
	if _, ok := s.Plan(job); ok {
		t.Fatalf("job %d unexpectedly planned", job.ID)
	}
	return s.Diagnose(job)
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
	if r.Len() != 2 || r.Total() != 3 || r.Dropped() != 1 {
		t.Fatalf("len=%d total=%d dropped=%d, want 2/3/1", r.Len(), r.Total(), r.Dropped())
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
	s := core.NewScheduler(4, 0, &core.Options{Diagnosis: r.Sink()})
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
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("retained %d, dropped %d; want 2, 0", r.Len(), r.Dropped())
	}
	r.MarkVerified(2, true)
	r.MarkVerified(3, false)
	for _, rec := range r.Records() {
		if want := rec.Diag.JobID == 2; rec.Verified == nil || *rec.Verified != want {
			t.Fatalf("job %d: verified = %v, want %v", rec.Diag.JobID, rec.Verified, want)
		}
	}

	// A nil recorder yields a nil sink (zero-cost default preserved).
	if (*Recorder)(nil).Sink() != nil {
		t.Fatalf("nil recorder produced a non-nil sink")
	}
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
	got, err := DecodeJSONL(&buf)
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

	// Malformed inputs are errors, blank lines are not.
	if _, err := DecodeJSONL(strings.NewReader("{nope\n")); err == nil {
		t.Fatalf("malformed line decoded")
	}
	if _, err := DecodeJSONL(strings.NewReader("{\"seq\":1,\"at\":0}\n")); err == nil {
		t.Fatalf("record without diagnosis decoded")
	}
	if recs, err := DecodeJSONL(strings.NewReader("\n\n")); err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: %v, %d records", err, len(recs))
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

	// Bare /explain streams the ring as JSONL.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/explain", nil))
	if rw.Code != 200 || rw.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("bare /explain: %d %q", rw.Code, rw.Header().Get("Content-Type"))
	}
	recs, err := DecodeJSONL(rw.Body)
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

// FuzzDiagnosisDecode fuzzes the JSONL decoder: it must never panic, and
// anything it accepts must re-encode and decode to the same records.
func FuzzDiagnosisDecode(f *testing.F) {
	// Seed with a genuine WriteJSONL stream.
	r := NewRecorder(4)
	s := core.NewScheduler(4, 0, &core.Options{Diagnosis: r.Sink()})
	s.Admit(core.Job{ID: 1, Chains: []core.Chain{{Tasks: []core.Task{{
		Procs: 8, Duration: 2, Deadline: 100,
	}}}}})
	s.Admit(core.Job{ID: 2, Chains: []core.Chain{{Tasks: []core.Task{{
		Procs: 2, Duration: 9, Deadline: 3,
	}}}}})
	r.MarkVerified(1, true)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"seq":1,"at":0,"diag":{"job":7,"release":0,"capacity":4,"peak_used":0,"chains":[]}}` + "\n"))
	f.Add([]byte(`{"seq":1}`))
	f.Add([]byte(`{nope`))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for i := range recs {
			if err := enc.Encode(recs[i]); err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
		}
		again, err := DecodeJSONL(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
	})
}
