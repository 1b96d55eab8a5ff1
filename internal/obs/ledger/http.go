package ledger

import (
	"encoding/json"
	"net/http"

	"milan/internal/obs"
)

// handler serves ledger snapshots from src as a JSON envelope: the
// snapshot plus fair shares and waste.  It is the ledger's one exposition;
// milanmon merges it across nodes.
func handler(src func() *Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		s := src()
		if s == nil {
			http.Error(w, "ledger: no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			*Snapshot
			FairShares []fairShare `json:"fair_shares"`
			WasteArea  float64     `json:"waste_area"`
		}{
			Snapshot:   s,
			FairShares: s.fairShares(),
			WasteArea:  s.TotalWasteArea(),
		})
	}
}

// handler serves this ledger's snapshots.
func (l *Ledger) handler() http.HandlerFunc { return handler(l.Snapshot) }

// Mount exposes the ledger on the observer's debug endpoint at /ledger.
func (l *Ledger) Mount(o *obs.Observer) {
	if l == nil || o == nil {
		return
	}
	o.Handle("/ledger", l.handler(), "per-tenant utilization ledger (JSON)")
}
