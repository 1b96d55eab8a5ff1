package ledger

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
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

func TestHandlerProm(t *testing.T) {
	sh := NewSharded(Config{Capacity: 4}, 2)
	// A hostile tenant name: label escaping must keep the exposition valid.
	k := Key{Tenant: "quo\"ted\\te\nnant", Class: 2}
	sh.Shard(0).RecordCommitKeyed(k, mkPl(0, 10, 1))
	sh.Shard(1).RecordCommitKeyed(Key{Tenant: "acme"}, mkPl(0, 10, 3))

	rec := httptest.NewRecorder()
	sh.Handler()(rec, httptest.NewRequest("GET", "/ledger?format=prom", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, family := range []string{
		"ledger_tenant_reserved_area", "ledger_tenant_realized_area",
		"ledger_tenant_waste_area", "ledger_tenant_commits",
		"ledger_tenant_rejections", "ledger_tenant_fair_share_ratio",
		"ledger_capacity_procs", "ledger_waste_area_total",
	} {
		if !strings.Contains(out, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}
	if !strings.Contains(out, `tenant="quo\"ted\\te\nnant"`) {
		t.Errorf("hostile tenant label not escaped per exposition format:\n%s", out)
	}
	if !strings.Contains(out, `ledger_tenant_reserved_area{tenant="acme",class="0"} 30`) {
		t.Errorf("missing acme sample:\n%s", out)
	}
	// Merged across shards: capacity is the plane total.
	if !strings.Contains(out, "ledger_capacity_procs 8") {
		t.Errorf("merged capacity not summed:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestHandlerAcceptNegotiation(t *testing.T) {
	l := New(Config{Capacity: 1})
	req := httptest.NewRequest("GET", "/ledger", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	l.Handler()(rec, req)
	if !strings.HasPrefix(rec.Body.String(), "# HELP") {
		t.Errorf("Accept: text/plain did not select the Prometheus exposition")
	}
}

func TestHandlerNoSnapshot(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(func() *Snapshot { return nil })(rec, httptest.NewRequest("GET", "/ledger", nil))
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}
