package latency

import (
	"encoding/json"
	"net/http"

	"milan/internal/obs"
)

// PhaseView is one phase's rendered summary on the /latency surface.
type PhaseView struct {
	Count    int64   `json:"count"`
	MeanNs   float64 `json:"mean_ns"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
	BudgetNs int64   `json:"budget_ns,omitempty"`
	Total    int64   `json:"total,omitempty"`
	Over     int64   `json:"over,omitempty"`
}

// view is the JSON shape of the /latency endpoint.
type view struct {
	Phases    map[string]PhaseView `json:"phases"`
	Envelope  Envelope             `json:"envelope"`
	Exemplars []Exemplar           `json:"exemplars"`
}

// view renders the plane's current state (nil plane: zero view).
func (p *Plane) view() view {
	v := view{Phases: map[string]PhaseView{}}
	if p == nil {
		return v
	}
	names := PhaseNames()
	render := func(h *obs.Hist, idx int) PhaseView {
		s := h.Snapshot()
		return PhaseView{
			Count:    s.Count,
			MeanNs:   s.Mean(),
			P50Ns:    s.Quantile(0.50),
			P99Ns:    s.Quantile(0.99),
			BudgetNs: p.budget[idx].Load(),
			Total:    p.total[idx].Load(),
			Over:     p.over[idx].Load(),
		}
	}
	for i := 0; i < NumPhases; i++ {
		v.Phases[names[i]] = render(p.phases[i], i)
	}
	v.Phases["e2e"] = render(p.e2e, NumPhases)
	v.Envelope = p.envelope()
	v.Exemplars = p.topK()
	return v
}

// Handler serves the latency anatomy as JSON.
func (p *Plane) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.view())
	}
}
