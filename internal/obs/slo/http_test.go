package slo

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"milan/internal/obs"
)

func TestEngineHandlerServesReport(t *testing.T) {
	e := New(Options{})
	e.JobAdmitted(1, 1, 0, 10, 9)
	rw := httptest.NewRecorder()
	e.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/slo", nil))
	if rw.Code != 200 {
		t.Fatalf("status %d", rw.Code)
	}
	var r Report
	if err := json.Unmarshal(rw.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Admitted != 1 || r.InFlight != 1 {
		t.Fatalf("report: %+v", r)
	}

	// ?now ticks the windows first; a bad value is a 400.
	rw = httptest.NewRecorder()
	e.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/slo?now=5.5", nil))
	if rw.Code != 200 {
		t.Fatalf("?now status %d", rw.Code)
	}
	// Non-finite clocks are refused before they reach the windows: +Inf
	// would reset every burn window on a GET, NaN would stamp an alert
	// encoding/json cannot encode.
	before := e.exportState()
	for _, bad := range []string{"bogus", "5.5x", "Inf", "+Inf", "-Inf", "infinity", "NaN", "nan", "1e400"} {
		rw = httptest.NewRecorder()
		e.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/slo?now="+url.QueryEscape(bad), nil))
		if rw.Code != 400 {
			t.Errorf("?now=%s status %d, want 400", bad, rw.Code)
		}
	}
	if after := e.exportState(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused ?now moved the engine:\nbefore %+v\nafter  %+v", before, after)
	}
}

// /slo carries the mergeable state beside the report, and a scrape (no
// ?now) is a pure read: the report after it is the report before it.
func TestScrapeServesStateAndLeavesReportUnchanged(t *testing.T) {
	e := New(Options{})
	timed(e, time.Millisecond)
	e.JobAdmitted(1, 1, 0, 10, 9)
	timed(e, 2*time.Millisecond)
	e.JobRejected()
	e.Tick(1)
	before := e.Report()
	var doc struct {
		Admitted int64        `json:"admitted"`
		State    *EngineState `json:"state"`
	}
	for i := 0; i < 3; i++ {
		rw := httptest.NewRecorder()
		e.handler().ServeHTTP(rw, httptest.NewRequest("GET", "/slo", nil))
		if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.Report(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a scrape changed the report:\nbefore %+v\nafter  %+v", before, after)
	}
	if doc.Admitted != 1 || doc.State == nil || !reflect.DeepEqual(*doc.State, e.exportState()) {
		t.Fatalf("/slo state = %+v, want %+v", doc.State, e.exportState())
	}
}

func TestMountOnObserver(t *testing.T) {
	o := obs.New(obs.Config{Tracing: true})
	rec := NewRecorder(o.Tracer(), o)
	e := New(Options{Registry: o.Reg, Recorder: rec})
	e.Mount(o)
	h := o.Handler()

	// /slo serves the report.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/slo", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "deadline_misses") {
		t.Fatalf("/slo: %d %s", rw.Code, rw.Body.String())
	}

	// /flight 404s until a snapshot is cut, then serves it.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/flight", nil))
	if rw.Code != 404 {
		t.Fatalf("/flight before snapshot: %d", rw.Code)
	}
	rec.Trigger(TriggerManual, 0, 1, "op snap")
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/flight", nil))
	if rw.Code != 200 {
		t.Fatalf("/flight after snapshot: %d", rw.Code)
	}

	// /healthz is ok while conformant…
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/healthz", nil))
	if rw.Code != 200 {
		t.Fatalf("/healthz conformant: %d %s", rw.Code, rw.Body.String())
	}
	// …and 503 once the hard invariant breaks.
	e.JobAdmitted(1, 1, 0, 10, 9)
	e.JobCompleted(1, 11)
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/healthz", nil))
	if rw.Code != 503 || !strings.Contains(rw.Body.String(), "slo violated") {
		t.Fatalf("/healthz violated: %d %s", rw.Code, rw.Body.String())
	}

	// The index lists the mounted routes.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rw.Body.String(), "/slo") || !strings.Contains(rw.Body.String(), "/flight") {
		t.Fatalf("index missing mounted routes:\n%s", rw.Body.String())
	}

	// Mount on nil is a no-op.
	e.Mount(nil)
	(*Engine)(nil).Mount(o)
}
