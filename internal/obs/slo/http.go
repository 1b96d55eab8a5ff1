package slo

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"milan/internal/obs"
)

// handler serves the engine's conformance report as JSON, with the
// engine's exportState under "state": the window totals a cluster burn is
// computed from (MergeStates, then Burns), which the report's derived burn
// rates cannot be merged into.  A plain GET changes nothing.  ?now=T (a
// finite float, engine clock seconds) first advances the windows to T, as
// Tick does — useful when no periodic Tick runs; a bad value, Inf or NaN
// included, is a 400.
func (e *Engine) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := r.URL.Query().Get("now"); s != "" {
			now, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsInf(now, 0) || math.IsNaN(now) {
				http.Error(w, "bad now parameter", http.StatusBadRequest)
				return
			}
			e.Tick(now)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Report
			State EngineState `json:"state"`
		}{e.Report(), e.exportState()}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Mount attaches the engine (and its flight recorder, when present) to an
// observer's debug endpoint:
//
//	/slo     the conformance report (JSON)
//	/flight  the most recent flight-recorder snapshot (JSONL download)
//
// and registers an "slo" health check that fails while the hard invariant
// is violated, so /healthz surfaces deadline misses.
func (e *Engine) Mount(o *obs.Observer) {
	if e == nil || o == nil {
		return
	}
	o.Handle("/slo", e.handler(), "SLO conformance report (JSON)")
	if rec := e.opts.Recorder; rec != nil {
		o.Handle("/flight", rec.handler(), "latest flight-recorder snapshot (JSONL)")
	}
	o.AddHealthCheck("slo", func() error {
		r := e.Report()
		if !r.Conformant() {
			return &violationError{misses: r.DeadlineMisses, over: r.OverAdmissions}
		}
		return nil
	})
}

// violationError reports the hard-invariant breach through /healthz.
type violationError struct {
	misses, over int64
}

func (v *violationError) Error() string {
	return "slo violated: " + strconv.FormatInt(v.misses, 10) + " deadline misses, " +
		strconv.FormatInt(v.over, 10) + " over-admissions"
}
