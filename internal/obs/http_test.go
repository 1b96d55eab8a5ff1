package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
