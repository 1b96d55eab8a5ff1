package slo

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"milan/internal/obs"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.recordSpan(obs.SpanRec{})
	r.Emit(obs.Event{})
	r.SetCooldown(1)
	r.Attach(nil)
	if r.Trigger(TriggerManual, 0, 0, "") != nil {
		t.Fatal("nil recorder returned a snapshot")
	}
	if r.Snapshots() != nil || r.Last() != nil || r.Len() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
}

func TestRecorderRingWrapOrdering(t *testing.T) {
	r := NewRecorder(4, 3)
	for i := 0; i < 10; i++ {
		r.recordSpan(obs.SpanRec{Trace: 1, ID: obs.SpanID(i + 1), Start: float64(i)})
		r.Emit(obs.Event{Time: float64(i), Job: i})
	}
	snap := r.Trigger(TriggerManual, 0, 10, "wrap test")
	if len(snap.Spans) != 4 || len(snap.Events) != 3 {
		t.Fatalf("ring sizes: %d spans, %d events", len(snap.Spans), len(snap.Events))
	}
	// Oldest-first, contiguous suffix of the stream.
	for i, s := range snap.Spans {
		if want := obs.SpanID(7 + i); s.ID != want {
			t.Fatalf("span[%d].ID = %d, want %d", i, s.ID, want)
		}
	}
	for i, ev := range snap.Events {
		if want := 7 + i; ev.Job != want {
			t.Fatalf("event[%d].Job = %d, want %d", i, ev.Job, want)
		}
	}
}

func TestSnapshotJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(8, 8)
	r.recordSpan(obs.SpanRec{Trace: 3, ID: 1, Name: "fed.negotiate", Stage: obs.StageArrival, Job: 9, Start: 1, End: 2})
	r.recordSpan(obs.SpanRec{Trace: 3, ID: 2, Parent: 1, Name: "sched.plan", Stage: obs.StagePlan, Job: 9,
		Start: 1.1, End: 1.9, Attrs: map[string]float64{"finish": 5.5}})
	r.Emit(obs.Event{Time: 1.5, Type: "Committed", Job: 9, Trace: 3, Span: 2})
	snap := r.Trigger(TriggerDeadlineMiss, 3, 6.0, "job 9 late")

	var buf bytes.Buffer
	if err := snap.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != snap.Kind || got.Trace != snap.Trace || got.At != snap.At || got.Note != snap.Note {
		t.Fatalf("header mismatch: %+v vs %+v", got, snap)
	}
	if !reflect.DeepEqual(got.Spans, snap.Spans) {
		t.Fatalf("spans mismatch:\n%+v\n%+v", got.Spans, snap.Spans)
	}
	if !reflect.DeepEqual(got.Events, snap.Events) {
		t.Fatalf("events mismatch:\n%+v\n%+v", got.Events, snap.Events)
	}
}

func TestDecodeSnapshotErrors(t *testing.T) {
	const header = `{"format":"milan-artifact","v":1,"kind":"flight"}` + "\n"
	cases := map[string]string{
		"empty":              "",
		"bad header":         "{not json}\n",
		"old header":         `{"v":1,"kind":"manual","at":0}` + "\n",
		"bad version":        `{"format":"milan-artifact","v":99,"kind":"flight"}` + "\n",
		"another kind":       `{"format":"milan-artifact","v":1,"kind":"ledger"}` + "\n",
		"no trigger":         header,
		"missing kind":       header + `{"trigger":{"at":0}}` + "\n",
		"two triggers":       header + `{"trigger":{"kind":"manual"}}` + "\n" + `{"trigger":{"kind":"manual"}}` + "\n",
		"span before":        header + `{"span":{"trace":1,"id":1}}` + "\n" + `{"trigger":{"kind":"manual"}}` + "\n",
		"bad line":           header + `{"trigger":{"kind":"manual","at":0}}` + "\n{}\n",
		"two keys":           header + `{"trigger":{"kind":"manual"},"span":{}}` + "\n",
		"unknown tag":        header + `{"trigger":{"kind":"manual"}}` + "\n" + `{"record":{}}` + "\n",
		"span not an object": header + `{"trigger":{"kind":"manual"}}` + "\n" + `{"span":[]}` + "\n",
	}
	for name, in := range cases {
		if _, err := DecodeSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted %q", name, in)
		}
	}
	// Blank lines are tolerated.
	ok := header + "\n" + `{"trigger":{"kind":"manual","at":1}}` + "\n\n" + `{"span":{"trace":1,"id":1,"name":"x","stage":"run","start":0,"end":1}}` + "\n"
	snap, err := DecodeSnapshot(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Stage != obs.StageRun {
		t.Fatalf("decoded snapshot: %+v", snap)
	}
}

func TestRecorderCooldown(t *testing.T) {
	r := NewRecorder(4, 4)
	r.SetCooldown(10)
	if r.Trigger(TriggerDeadlineMiss, 1, 100, "") == nil {
		t.Fatal("first trigger suppressed")
	}
	if r.Trigger(TriggerDeadlineMiss, 2, 105, "") != nil {
		t.Fatal("cooldown did not suppress")
	}
	// A different kind is not suppressed.
	if r.Trigger(TriggerOverAdmission, 3, 105, "") == nil {
		t.Fatal("cooldown suppressed a different kind")
	}
	// Past the cooldown the kind fires again.
	if r.Trigger(TriggerDeadlineMiss, 4, 111, "") == nil {
		t.Fatal("trigger suppressed past cooldown")
	}
	if r.triggers != 3 {
		t.Fatalf("triggers = %d, want 3", r.triggers)
	}
}

func TestRecorderAttachToTracer(t *testing.T) {
	tr := obs.NewTracer(16)
	rec := NewRecorder(16, 16)
	rec.Attach(tr)
	trace := tr.NewTrace()
	sp := tr.Start(trace, 0, "x", obs.StageRun, 1)
	sp.EndAt(2)
	snap := rec.Trigger(TriggerManual, uint64(trace), 3, "")
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "x" {
		t.Fatalf("attached recorder missed the span: %+v", snap.Spans)
	}
}

func TestRecorderRetentionBound(t *testing.T) {
	r := NewRecorder(2, 2)
	for i := 0; i < 20; i++ {
		r.Trigger(TriggerManual, uint64(i+1), float64(i), "")
	}
	if r.Len() != 16 {
		t.Fatalf("retained %d snapshots, want 16", r.Len())
	}
	snaps := r.Snapshots()
	if snaps[0].Trace != 5 || snaps[15].Trace != 20 {
		t.Fatalf("wrong snapshots retained: first=%d last=%d", snaps[0].Trace, snaps[15].Trace)
	}
	if r.triggers != 20 {
		t.Fatalf("triggers = %d, want 20", r.triggers)
	}
}

func TestRecorderHandler(t *testing.T) {
	r := NewRecorder(4, 4)
	rw := httptest.NewRecorder()
	r.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/flight", nil))
	if rw.Code != 404 {
		t.Fatalf("empty recorder: status %d, want 404", rw.Code)
	}
	r.recordSpan(obs.SpanRec{Trace: 1, ID: 1, Name: "x", Stage: obs.StageRun, End: 1})
	r.Trigger(TriggerManual, 1, 2, "snap")
	rw = httptest.NewRecorder()
	r.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/flight", nil))
	if rw.Code != 200 {
		t.Fatalf("status %d, want 200", rw.Code)
	}
	snap, err := DecodeSnapshot(rw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != TriggerManual || len(snap.Spans) != 1 {
		t.Fatalf("served snapshot: %+v", snap)
	}
}
