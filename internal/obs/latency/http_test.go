package latency

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
)

// TestHandlerHasOneRepresentation pins that /latency serves JSON only:
// neither ?format=prom nor an Accept header preferring text/plain turns
// the view into anything else.
func TestHandlerHasOneRepresentation(t *testing.T) {
	env := Envelope{E2E: 1000}
	env.Phase[phase.Plan] = 500
	p := New(obs.NewRegistry())
	p.SetEnvelope(env)
	var durs [NumPhases]int64
	durs[phase.Plan] = 800
	drive(p, 1200, durs)

	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		p.Handler().ServeHTTP(rw, req)
		return rw
	}
	plain := serve(httptest.NewRequest("GET", "/latency", nil))
	if !strings.Contains(plain.Body.String(), `"exemplars"`) {
		t.Fatalf("plain GET is not the JSON view:\n%s", plain.Body.String())
	}
	accept := httptest.NewRequest("GET", "/latency", nil)
	accept.Header.Set("Accept", "text/plain")
	for _, req := range []*http.Request{httptest.NewRequest("GET", "/latency?format=prom", nil), accept} {
		rw := serve(req)
		if ct := rw.Header().Get("Content-Type"); rw.Code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s (Accept %q): %d %q", req.URL, req.Header.Get("Accept"), rw.Code, ct)
		}
		if rw.Body.String() != plain.Body.String() {
			t.Fatalf("%s (Accept %q) differs from a plain GET:\n%s\nwant\n%s",
				req.URL, req.Header.Get("Accept"), rw.Body.String(), plain.Body.String())
		}
	}
}
