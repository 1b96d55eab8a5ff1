package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"milan/internal/obs"
)

// The cluster endpoints must serve: JSON /metrics with merged == node
// sums, /nodes, /healthz, /state; a malformed query parameter is a 400.
func TestHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jobs_admitted").Add(3)
	node := httptest.NewServer(obs.New(obs.Config{Registry: reg}).Handler())
	defer node.Close()
	addr := node.Listener.Addr().String()
	agg := newTestAggregator(t, false, addr)
	agg.pollOnce()
	h := agg.Handler()

	// JSON /metrics.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var body struct {
		Merged obs.Snapshot            `json:"merged"`
		Nodes  map[string]obs.Snapshot `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Merged.Counters["jobs_admitted"] != 3 || body.Nodes[addr].Counters["jobs_admitted"] != 3 {
		t.Fatalf("merged/per-node mismatch: %+v", body)
	}

	// Query parameters parse strictly: trailing garbage, a sign or an
	// out-of-range value is refused, never read as its numeric prefix.
	for _, target := range []string{
		"/trace?trace=12abc", "/trace?trace=-1", "/trace?trace=0x10",
		"/latency?k=5x", "/latency?k=0", "/latency?k=-3", "/latency?k=2.5",
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/latency?k=5", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/latency?k=5: status %d, want 200", rec.Code)
	}

	// /nodes reports the node up.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nodes", nil))
	var nodes []NodeStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || !nodes[0].Up || nodes[0].Addr != addr || nodes[0].Polls != 1 {
		t.Fatalf("/nodes = %+v", nodes)
	}

	// /healthz is 200 while the node answers, 503 once a poll fails.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d with node up", rec.Code)
	}
	node.Close()
	agg.pollOnce()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz = %d with node down", rec.Code)
	}

	// /state is one self-contained JSON document, and keeps the down
	// node's last view.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/state", nil))
	var st ClusterState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/state: %v", err)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Up || st.Merged.Counters["jobs_admitted"] != 3 {
		t.Fatalf("/state = %+v", st)
	}
}

// TestMetricsHasOneRepresentation pins that the cluster /metrics serves
// JSON only: neither ?format=prom nor an Accept header preferring
// text/plain turns the {merged, nodes} document into anything else.
func TestMetricsHasOneRepresentation(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jobs_admitted").Add(3)
	reg.Histogram("admit_latency_ns").Observe(500 * time.Microsecond)
	node := httptest.NewServer(obs.New(obs.Config{Registry: reg}).Handler())
	defer node.Close()
	agg := newTestAggregator(t, false, node.Listener.Addr().String())
	agg.pollOnce()
	h := agg.Handler()
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	plain := serve(httptest.NewRequest("GET", "/metrics", nil))
	accept := httptest.NewRequest("GET", "/metrics", nil)
	accept.Header.Set("Accept", "text/plain")
	for _, req := range []*http.Request{httptest.NewRequest("GET", "/metrics?format=prom", nil), accept} {
		rec := serve(req)
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json; charset=utf-8" {
			t.Fatalf("%s (Accept %q): %d %q", req.URL, req.Header.Get("Accept"), rec.Code, ct)
		}
		if rec.Body.String() != plain.Body.String() {
			t.Fatalf("%s (Accept %q) differs from a plain GET:\n%s\nwant\n%s",
				req.URL, req.Header.Get("Accept"), rec.Body.String(), plain.Body.String())
		}
	}
}
