package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// ClusterState is the aggregator's full view in one JSON-marshalable
// value: the /state surface, and the artifact milanmon dumps on smoke
// failure.
type ClusterState struct {
	Nodes     []NodeStatus            `json:"nodes"`
	Merged    obs.Snapshot            `json:"merged"`
	PerNode   map[string]obs.Snapshot `json:"per_node"`
	SLO       slo.EngineState         `json:"slo"`
	Burns     []slo.ObjectiveBurn     `json:"burns"`
	Ledger    *ledger.Snapshot        `json:"ledger,omitempty"`
	Exemplars []latency.Exemplar      `json:"exemplars,omitempty"`
	Alerts    []AlertEvent            `json:"alerts,omitempty"`
	Error     string                  `json:"error,omitempty"`
}

// State captures the aggregator's current cluster view.
func (a *Aggregator) State() ClusterState {
	merged, err := a.MergedRegistry()
	st := ClusterState{
		Nodes:     a.Nodes(),
		Merged:    merged,
		PerNode:   a.NodeSnapshots(),
		SLO:       a.MergedSLO(),
		Ledger:    a.mergedLedger(),
		Exemplars: a.mergedExemplars(0),
		Alerts:    a.alerts(),
	}
	st.Burns = st.SLO.Burns()
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

// Handler serves the aggregator's cluster-level view:
//
//	/metrics  merged registry and each node's, keyed by node address (JSON)
//	/trace    stitched cross-process span trees as JSON (?trace=ID)
//	/slo      merged SLO state, re-derived burns, and alert transitions
//	/nodes    per-node liveness, poll lag, and span accounting
//	/ledger   merged utilization ledger
//	/latency  merged phase-latency anatomy: cluster-wide per-phase
//	          quantiles, top-K slowest exemplars, stitched traces
//	/state    the full ClusterState in one document
//	/healthz  200 when every node's last poll succeeded, 503 otherwise
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("milanmon cluster view\n\n/metrics  merged registry + per-node registries (JSON)\n/trace    stitched cross-process span trees (JSON, ?trace=ID)\n/slo      merged SLO state + re-derived burn rates + alerts\n/nodes    node liveness, poll lag, span accounting\n/ledger   merged utilization ledger\n/latency  merged phase anatomy, slowest exemplars, their traces\n/state    full cluster state in one document\n/healthz  cluster liveness\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		merged, err := a.MergedRegistry()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct {
			Merged obs.Snapshot            `json:"merged"`
			Nodes  map[string]obs.Snapshot `json:"nodes"`
		}{merged, a.NodeSnapshots()})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		trees := a.SpanTrees()
		if s := r.URL.Query().Get("trace"); s != "" {
			id, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad trace parameter", http.StatusBadRequest)
				return
			}
			if tree, ok := trees[obs.TraceID(id)]; ok {
				writeJSON(w, tree)
				return
			}
			http.NotFound(w, r)
			return
		}
		out := make([]*obs.SpanNode, 0, len(trees))
		for _, id := range sortedKeys(trees) {
			out = append(out, trees[id])
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		st := a.MergedSLO()
		writeJSON(w, struct {
			State  slo.EngineState     `json:"state"`
			Burns  []slo.ObjectiveBurn `json:"burns"`
			Alerts []AlertEvent        `json:"alerts"`
		}{st, st.Burns(), a.alerts()})
	})
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.Nodes())
	})
	mux.HandleFunc("/ledger", func(w http.ResponseWriter, r *http.Request) {
		ls := a.mergedLedger()
		if ls == nil {
			http.Error(w, "no node serves a ledger", http.StatusNotFound)
			return
		}
		writeJSON(w, ls)
	})
	mux.HandleFunc("/latency", func(w http.ResponseWriter, r *http.Request) {
		k := 16
		if q := r.URL.Query().Get("k"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "bad k parameter", http.StatusBadRequest)
				return
			}
			k = v
		}
		writeJSON(w, a.clusterLatency(k))
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.State())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		nodes := a.Nodes()
		down := 0
		for _, n := range nodes {
			if !n.Up {
				down++
			}
		}
		if down > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, struct {
			Nodes int `json:"nodes"`
			Down  int `json:"down"`
		}{len(nodes), down})
	})
	return mux
}

// latencyView is the /latency surface: cluster-wide phase anatomy built
// from the merged phase histograms (no budgets: the envelope is per
// node), the k slowest exemplars across all
// nodes, and — for every exemplar whose trace the scraped spans retain —
// the stitched cross-process span tree, so a tail request is navigable
// from waterfall to spans in one document.
type latencyView struct {
	Phases    map[string]latency.PhaseView `json:"phases"`
	Exemplars []latency.Exemplar           `json:"exemplars"`
	Traces    map[string]*obs.SpanNode     `json:"traces,omitempty"`
	Error     string                       `json:"error,omitempty"`
}

// clusterLatency assembles the cluster latency anatomy (k bounds the
// exemplar list; <= 0 keeps all).
func (a *Aggregator) clusterLatency(k int) latencyView {
	v := latencyView{Phases: make(map[string]latency.PhaseView)}
	merged, err := a.MergedRegistry()
	if err != nil {
		v.Error = err.Error()
	}
	names := latency.PhaseNames()
	grab := func(key, metric string) {
		h, ok := merged.Histograms[metric]
		if !ok || h.Count == 0 {
			return
		}
		v.Phases[key] = latency.PhaseView{
			Count:  h.Count,
			MeanNs: h.Mean(),
			P50Ns:  h.Quantile(0.50),
			P99Ns:  h.Quantile(0.99),
		}
	}
	grab("e2e", "latency_admit_ns")
	for _, n := range names {
		grab(n, "latency_phase_"+n+"_ns")
	}
	v.Exemplars = a.mergedExemplars(k)
	trees := a.SpanTrees()
	for _, e := range v.Exemplars {
		if e.Trace == 0 {
			continue
		}
		if tree, ok := trees[obs.TraceID(e.Trace)]; ok {
			if v.Traces == nil {
				v.Traces = make(map[string]*obs.SpanNode)
			}
			v.Traces[fmt.Sprintf("%d", e.Trace)] = tree
		}
	}
	return v
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
