package ledger

import (
	"encoding/json"
	"net/http"

	"milan/internal/obs"
)

// Handler serves ledger snapshots from src as a JSON envelope: the
// snapshot plus fair shares and waste.  It is the ledger's one exposition;
// milanmon merges it across nodes.
func Handler(src func() *Snapshot) http.HandlerFunc {
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
	o.Handle("/ledger", l.Handler(), "per-tenant utilization ledger (JSON)")
}

// Mount exposes the merged plane ledger at /ledger.
func (s *Sharded) Mount(o *obs.Observer) {
	if s == nil || o == nil {
		return
	}
	o.Handle("/ledger", s.Handler(), "per-tenant utilization ledger, merged across shards (JSON)")
}
