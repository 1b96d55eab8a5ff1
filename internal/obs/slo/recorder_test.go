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
	r.SetCooldown(1)
	if r.Trigger(TriggerManual, 0, 0, "") != nil {
		t.Fatal("nil recorder returned a snapshot")
	}
	if r.Snapshots() != nil || r.Last() != nil || r.Len() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
}

// clock is a sim-engine stand-in for Observer.BindEngine.
type clock struct{}

func (clock) Now() float64 { return 0 }

// TestRecorderRingWrapOrdering: a snapshot is the tracer's span ring and
// the observer's event ring as they stood at the trigger, each wrapped
// past its capacity (an oldest-first, contiguous suffix of its stream),
// and later spans and events do not reach a snapshot already cut.
func TestRecorderRingWrapOrdering(t *testing.T) {
	tr := obs.NewTracer(4)
	o := obs.New(obs.Config{})
	fire := o.BindEngine(clock{})
	r := NewRecorder(tr, o)
	const events = 4096 + 3
	for i := 0; i < events; i++ {
		fire("tick", float64(i+1))
	}
	for i := 0; i < 10; i++ {
		tr.StartAt(tr.NewTrace(), 0, "s", obs.StageRun, i, float64(i)).EndAt(float64(i) + 1)
	}
	spans, evs := tr.Spans(), o.Events()
	snap := r.Trigger(TriggerManual, 0, 10, "wrap test")
	if !reflect.DeepEqual(snap.Spans, spans) || !reflect.DeepEqual(snap.Events, evs) {
		t.Fatal("snapshot is not the source rings at trigger time")
	}
	for i, s := range snap.Spans {
		if want := 6 + i; s.Job != want {
			t.Fatalf("span[%d].Job = %d, want %d", i, s.Job, want)
		}
	}
	if len(snap.Events) != 4096 || snap.Events[0].Time != events-4095 || snap.Events[4095].Time != events {
		t.Fatalf("events: %d, first at %g, last at %g", len(snap.Events), snap.Events[0].Time, snap.Events[len(snap.Events)-1].Time)
	}
	tr.StartAt(tr.NewTrace(), 0, "later", obs.StageRun, 99, 11).EndAt(12)
	fire("later", events+1)
	if !reflect.DeepEqual(snap.Spans, spans) || !reflect.DeepEqual(snap.Events, evs) {
		t.Fatal("a snapshot changed after it was cut")
	}
}

// TestRecorderWithoutSourcesCutsTriggerOnly: a recorder with neither a
// tracer nor an observer still cuts and keeps a snapshot, with no spans or
// events.
func TestRecorderWithoutSourcesCutsTriggerOnly(t *testing.T) {
	r := NewRecorder(nil, nil)
	snap := r.Trigger(TriggerCapacityDrift, 4, 7, "lost two procs")
	want := &Snapshot{Kind: TriggerCapacityDrift, Trace: 4, At: 7, Note: "lost two procs"}
	if !reflect.DeepEqual(snap, want) || r.Last() != snap {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
}

func TestSnapshotJSONLRoundTrip(t *testing.T) {
	snap := &Snapshot{Kind: TriggerDeadlineMiss, Trace: 3, At: 6.0, Note: "job 9 late",
		Spans: []obs.SpanRec{
			{Trace: 3, ID: 1, Name: "fed.negotiate", Stage: obs.StageArrival, Job: 9, Start: 1, End: 2},
			{Trace: 3, ID: 2, Parent: 1, Name: "sched.plan", Stage: obs.StagePlan, Job: 9,
				Start: 1.1, End: 1.9, Attrs: map[string]float64{"finish": 5.5}},
		},
		Events: []obs.Event{{Time: 1.5, Type: "Committed", Job: 9, Trace: 3, Span: 2}},
	}

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
	r := NewRecorder(nil, nil)
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

// TestRecorderAttachToTracer: a recorder built on a tracer sees a span
// that ends on that tracer after the recorder was made.
func TestRecorderAttachToTracer(t *testing.T) {
	tr := obs.NewTracer(16)
	rec := NewRecorder(tr, nil)
	trace := tr.NewTrace()
	sp := tr.Start(trace, 0, "x", obs.StageRun, 1)
	sp.EndAt(2)
	snap := rec.Trigger(TriggerManual, uint64(trace), 3, "")
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "x" {
		t.Fatalf("attached recorder missed the span: %+v", snap.Spans)
	}
}

func TestRecorderRetentionBound(t *testing.T) {
	r := NewRecorder(nil, nil)
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
	tr := obs.NewTracer(4)
	r := NewRecorder(tr, nil)
	rw := httptest.NewRecorder()
	r.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/flight", nil))
	if rw.Code != 404 {
		t.Fatalf("empty recorder: status %d, want 404", rw.Code)
	}
	tr.StartAt(tr.NewTrace(), 0, "x", obs.StageRun, 1, 0).EndAt(1)
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
