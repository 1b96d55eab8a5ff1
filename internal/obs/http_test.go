package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"milan/internal/fed"
)

func newTestServer(t *testing.T) (*Observer, *httptest.Server) {
	t.Helper()
	o := New(Config{})
	arb, err := fed.New(fed.Config{Procs: 4, Observer: o.DecisionObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.Negotiate(tunableJob(1, 0)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	t.Cleanup(srv.Close)
	return o, srv
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeServesMetricsAndTrace: the endpoint Serve binds publishes the
// decision adapter's counters on /metrics and its events on /trace, and
// stops when its server is closed.
func TestServeServesMetricsAndTrace(t *testing.T) {
	o := New(Config{})
	arb, err := fed.New(fed.Config{Procs: 4, Observer: o.DecisionObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, err := Serve(o.Handler(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	if _, err := arb.Negotiate(tunableJob(1, 0)); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters[MetricAdmitted] != 1 || snap.Counters["qos_decisions"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}

	code, body = get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var evs []Event
	if err := json.Unmarshal(body, &evs); err != nil || len(evs) != 1 || evs[0].Type != "Committed" || evs[0].Job != 1 {
		t.Fatalf("/trace = %+v, err %v; want job 1's Committed event", evs, err)
	}

	srv.Close()
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("debug endpoint still serving after Close")
	}
	if _, _, err := Serve(o.Handler(), "127.0.0.1:999999"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestHandlerMetrics(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters[MetricAdmitted] != 1 {
		t.Fatalf("admitted = %d, want 1", snap.Counters[MetricAdmitted])
	}
}

// TestMetricsHasOneRepresentation pins that /metrics serves JSON only:
// neither ?format=prom nor an Accept header preferring text/plain turns
// the registry snapshot into anything else.
func TestMetricsHasOneRepresentation(t *testing.T) {
	o := New(Config{})
	o.Reg.Counter("sched_plans").Add(3)
	o.Reg.Histogram("admit_latency_ns").Observe(500 * time.Microsecond)
	h := o.Handler()
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw
	}
	plain := serve(httptest.NewRequest("GET", "/metrics", nil))
	accept := httptest.NewRequest("GET", "/metrics", nil)
	accept.Header.Set("Accept", "text/plain")
	for _, req := range []*http.Request{httptest.NewRequest("GET", "/metrics?format=prom", nil), accept} {
		rw := serve(req)
		if ct := rw.Header().Get("Content-Type"); rw.Code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s (Accept %q): %d %q", req.URL, req.Header.Get("Accept"), rw.Code, ct)
		}
		if rw.Body.String() != plain.Body.String() {
			t.Fatalf("%s (Accept %q) differs from a plain GET:\n%s\nwant\n%s",
				req.URL, req.Header.Get("Accept"), rw.Body.String(), plain.Body.String())
		}
	}
}

func TestHandlerTrace(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var evs []Event
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if len(evs) == 0 {
		t.Fatal("no trace events")
	}

	code, body = get(t, srv.URL+"/trace?n=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if err := json.Unmarshal(body, &evs); err != nil || len(evs) != 1 {
		t.Fatalf("/trace?n=1 = %d events, err %v", len(evs), err)
	}

	if code, _ = get(t, srv.URL+"/trace?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n status = %d, want 400", code)
	}
	if code, _ = get(t, srv.URL+"/trace?n=-2"); code != http.StatusBadRequest {
		t.Fatalf("negative n status = %d, want 400", code)
	}
}

func TestHandlerTraceEmptyIsArray(t *testing.T) {
	o := New(Config{})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var evs []Event
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("empty /trace not a JSON array: %s", body)
	}
	if evs == nil || len(evs) != 0 {
		t.Fatalf("empty /trace = %v, want []", evs)
	}
}

func TestHandlerIndexAnd404(t *testing.T) {
	_, srv := newTestServer(t)
	if code, body := get(t, srv.URL+"/"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("index = %d, %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}

func TestPprofMountedBehindFlag(t *testing.T) {
	// Off by default: the subtree is not routed.
	o := New(Config{})
	rw := httptest.NewRecorder()
	o.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 404 {
		t.Fatalf("pprof served without the flag: %d", rw.Code)
	}

	// Config.EnablePprof mounts the index, named profiles and cmdline.
	o = New(Config{EnablePprof: true})
	h := o.Handler()
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d %s", rw.Code, rw.Body.String())
	}
	// Named profile resolves through the "/"-suffix prefix route.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/goroutine?debug=1", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "goroutine") {
		t.Fatalf("goroutine profile: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rw.Code != 200 {
		t.Fatalf("cmdline: %d", rw.Code)
	}
	// The index lists the mount.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rw.Body.String(), "/debug/pprof/") {
		t.Fatalf("endpoint index does not list pprof: %s", rw.Body.String())
	}
}

// TestHandlerSpansSince: /spans?since=N sends only the retained spans past
// the first N, oldest first, under the same total header; a cursor past the
// total (a restarted node) or none sends the whole ring, one at the total
// sends [], and a cursor that is not a count is refused.
func TestHandlerSpansSince(t *testing.T) {
	o := New(Config{Tracing: true, SpanRingSize: 4})
	tr := o.Tracer()
	for i := 0; i < 6; i++ {
		tr.Start(tr.NewTrace(), 0, "s", StageRun, i).End()
	}
	h := o.Handler()
	epoch := strconv.FormatInt(tr.born, 10)
	otherEpoch := strconv.FormatInt(tr.born+1, 10)
	spans := func(query string) (code int, jobs []int, total string, body string) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/spans"+query, nil))
		if rw.Code != http.StatusOK {
			return rw.Code, nil, "", rw.Body.String()
		}
		var recs []SpanRec
		if err := json.Unmarshal(rw.Body.Bytes(), &recs); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		for _, r := range recs {
			jobs = append(jobs, r.Job)
		}
		if got := rw.Header().Get(SpansEpochHeader); got != epoch {
			t.Errorf("%s: epoch header %q, want %q", query, got, epoch)
		}
		return rw.Code, jobs, rw.Header().Get(SpansTotalHeader), rw.Body.String()
	}
	for query, want := range map[string][]int{
		"":                             {2, 3, 4, 5},
		"?since=0":                     {2, 3, 4, 5}, // before the oldest retained: all of the ring
		"?since=3":                     {3, 4, 5},
		"?since=5":                     {5},
		"?since=7":                     {2, 3, 4, 5}, // past the total: a restarted node's ring
		"?since=99":                    {2, 3, 4, 5},
		"?since=4&epoch=" + epoch:      {4, 5},
		"?since=4&epoch=0":             {4, 5},       // no epoch known yet
		"?since=4&epoch=" + otherEpoch: {2, 3, 4, 5}, // another process's count
	} {
		code, jobs, total, _ := spans(query)
		if code != http.StatusOK || !slices.Equal(jobs, want) || total != "6" {
			t.Errorf("/spans%s = %d %v total %q, want %v total 6", query, code, jobs, total, want)
		}
	}
	if code, _, total, body := spans("?since=6"); code != http.StatusOK || strings.TrimSpace(body) != "[]" || total != "6" {
		t.Errorf("/spans?since=6 = %d %q total %q, want [] total 6", code, body, total)
	}
	for _, bad := range []string{"?since=-1", "?since=x", "?since=1.5", "?epoch=x", "?since=1&epoch=-2"} {
		if code, _, _, _ := spans(bad); code != http.StatusBadRequest {
			t.Errorf("/spans%s status = %d, want 400", bad, code)
		}
	}
}
