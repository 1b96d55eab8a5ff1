package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"milan/internal/obs"
)

// Handler serves ledger snapshots from src: the default representation
// is a JSON envelope (snapshot plus fair shares and waste); ?format=prom
// — or an Accept header preferring text/plain — selects the Prometheus
// text exposition with per-tenant labels.
func Handler(src func() *Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		s := src()
		if s == nil {
			http.Error(w, "ledger: no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		if wantsProm(req) {
			w.Header().Set("Content-Type", obs.PromContentType)
			writeProm(w, s)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			*Snapshot
			FairShares []FairShare `json:"fair_shares"`
			WasteArea  float64     `json:"waste_area"`
		}{
			Snapshot:   s,
			FairShares: s.FairShares(),
			WasteArea:  s.TotalWasteArea(),
		})
	}
}

// Handler serves this ledger's snapshots.
func (l *Ledger) Handler() http.HandlerFunc { return Handler(l.Snapshot) }

// Handler serves the plane-wide merged snapshot.
func (s *Sharded) Handler() http.HandlerFunc { return Handler(s.Merged) }

// Mount exposes the ledger on the observer's debug endpoint at /ledger.
func (l *Ledger) Mount(o *obs.Observer) {
	if l == nil || o == nil {
		return
	}
	o.Handle("/ledger", l.Handler(), "per-tenant utilization ledger (JSON; ?format=prom for Prometheus text)")
}

// Mount exposes the merged plane ledger at /ledger.
func (s *Sharded) Mount(o *obs.Observer) {
	if s == nil || o == nil {
		return
	}
	o.Handle("/ledger", s.Handler(), "per-tenant utilization ledger, merged across shards (JSON; ?format=prom)")
}

// wantsProm mirrors the /metrics content negotiation: explicit format
// parameter wins, then an Accept header preferring the text format.
func wantsProm(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "application/openmetrics-text")
}

// writeProm renders the snapshot in the Prometheus text exposition
// format with escaped per-tenant labels and HELP/TYPE metadata for
// every family.
func writeProm(w io.Writer, s *Snapshot) error {
	labels := func(t string, c int) string {
		return fmt.Sprintf(`{tenant="%s",class="%d"}`, obs.PromEscapeLabel(t), c)
	}
	family := func(name, kind, help string) error {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		return err
	}

	if err := family("ledger_tenant_reserved_area", "gauge", "Committed reservation area per tenant and class (processor-time units)."); err != nil {
		return err
	}
	for _, t := range s.Totals {
		fmt.Fprintf(w, "ledger_tenant_reserved_area%s %g\n", labels(t.Tenant, t.Class), t.ReservedArea)
	}
	if err := family("ledger_tenant_realized_area", "gauge", "Realized execution area per tenant and class."); err != nil {
		return err
	}
	for _, t := range s.Totals {
		fmt.Fprintf(w, "ledger_tenant_realized_area%s %g\n", labels(t.Tenant, t.Class), t.RealizedArea)
	}
	if err := family("ledger_tenant_waste_area", "gauge", "Reserved-but-unrealized area per tenant and class."); err != nil {
		return err
	}
	for _, t := range s.Totals {
		fmt.Fprintf(w, "ledger_tenant_waste_area%s %g\n", labels(t.Tenant, t.Class), t.Waste())
	}
	if err := family("ledger_tenant_commits", "counter", "Committed reservations per tenant and class."); err != nil {
		return err
	}
	for _, t := range s.Totals {
		fmt.Fprintf(w, "ledger_tenant_commits%s %d\n", labels(t.Tenant, t.Class), t.Commits)
	}
	if err := family("ledger_tenant_rejections", "counter", "Rejected negotiations per tenant and class."); err != nil {
		return err
	}
	for _, t := range s.Totals {
		fmt.Fprintf(w, "ledger_tenant_rejections%s %d\n", labels(t.Tenant, t.Class), t.Rejections)
	}
	if err := family("ledger_tenant_fair_share_ratio", "gauge", "Tenant share of reserved area over an equal split (1 = exactly fair)."); err != nil {
		return err
	}
	for _, fs := range s.FairShares() {
		fmt.Fprintf(w, "ledger_tenant_fair_share_ratio%s %g\n", labels(fs.Tenant, fs.Class), fs.Ratio)
	}

	if err := family("ledger_capacity_procs", "gauge", "Current pool capacity in processors."); err != nil {
		return err
	}
	fmt.Fprintf(w, "ledger_capacity_procs %d\n", s.Capacity)
	if err := family("ledger_waste_area_total", "gauge", "Total reserved-but-unrealized area."); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "ledger_waste_area_total %g\n", s.TotalWasteArea())
	return err
}
