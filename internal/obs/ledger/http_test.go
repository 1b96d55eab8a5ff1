package ledger

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHandlerJSON(t *testing.T) {
	l := New(Config{Capacity: 4})
	k := Key{Tenant: "acme", Class: 1}
	pl := mkPl(0, 10, 2)
	l.RecordCommitKeyed(k, pl)
	l.RecordCompletion(k, pl)

	rec := httptest.NewRecorder()
	l.Handler()(rec, httptest.NewRequest("GET", "/ledger", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var body struct {
		Totals     []Totals    `json:"totals"`
		WasteArea  float64     `json:"waste_area"`
		FairShares []FairShare `json:"fair_shares"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(body.Totals) != 1 || body.Totals[0].Tenant != "acme" || body.Totals[0].ReservedArea != 20 {
		t.Errorf("totals = %+v", body.Totals)
	}
	if body.WasteArea != 0 {
		t.Errorf("waste=%v, want 0", body.WasteArea)
	}
	if len(body.FairShares) != 1 || body.FairShares[0].Ratio != 1 {
		t.Errorf("fair shares = %+v", body.FairShares)
	}
}

// TestHandlerAcceptNegotiation pins that /ledger has one representation:
// neither ?format=prom nor an Accept header preferring text/plain turns
// the merged JSON envelope into anything else.
func TestHandlerAcceptNegotiation(t *testing.T) {
	sh := NewSharded(Config{Capacity: 4}, 2)
	sh.Shard(0).RecordCommitKeyed(Key{Tenant: "acme"}, mkPl(0, 10, 1))
	sh.Shard(1).RecordCommitKeyed(Key{Tenant: "acme"}, mkPl(0, 10, 3))
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/ledger?format=prom", nil),
		func() *http.Request {
			r := httptest.NewRequest("GET", "/ledger", nil)
			r.Header.Set("Accept", "text/plain")
			return r
		}(),
	} {
		rec := httptest.NewRecorder()
		sh.Handler()(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", req.URL, ct)
		}
		var body struct {
			Capacity int      `json:"capacity"`
			Totals   []Totals `json:"totals"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", req.URL, err, rec.Body.String())
		}
		// Merged across shards: capacity is the plane total.
		if body.Capacity != 8 || len(body.Totals) != 1 || body.Totals[0].ReservedArea != 40 {
			t.Fatalf("%s: merged envelope = %+v", req.URL, body)
		}
	}
}

func TestHandlerNoSnapshot(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(func() *Snapshot { return nil })(rec, httptest.NewRequest("GET", "/ledger", nil))
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}
