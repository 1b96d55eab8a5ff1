package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
)

// SpansTotalHeader carries, on every /spans response, the number of spans
// the tracer has ever completed (its completed-span count) up to the last one in the
// body: a scraper that remembers it knows which spans are new next time
// and how many the ring overwrote in between.
const SpansTotalHeader = "X-Spans-Total"

// SpansEpochHeader carries, on every /spans response, the tracer's epoch
// (its creation time in Unix ns): a count is only comparable with counts of
// the same epoch, so a scraper that sees it change knows the node restarted,
// however far its new count has run.
const SpansEpochHeader = "X-Spans-Epoch"

// Handler returns the observer's debug endpoint:
//
//	/metrics  expvar-style JSON snapshot of the metrics registry
//	/trace    recent ring-buffer events as JSON (?n=K limits the count)
//	/spans    completed request spans as JSON, oldest first (empty without
//	          tracing), with SpansTotalHeader and SpansEpochHeader;
//	          ?since=N sends only the retained spans past the first N (the
//	          whole ring when N is past the count, or when ?epoch=E is not
//	          the tracer's epoch, as after a restart)
//	/healthz  liveness + registered readiness checks (health.go)
//	/         a tiny index
//
// Extensions mounted via Handle (e.g. the SLO engine's /slo) are
// dispatched dynamically: they may be added before or after Handler() is
// called.  Mount it on any mux or serve it with Serve.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("milan debug endpoint\n\n/metrics  registry snapshot (JSON)\n/trace    recent trace events (JSON, ?n=K)\n/spans    completed request spans (JSON, ?since=N&epoch=E)\n/healthz  liveness + readiness checks\n"))
		for _, p := range o.extraRoutes() {
			help := ""
			o.webMu.Lock()
			if r, ok := o.extra[p]; ok {
				help = r.help
			}
			o.webMu.Unlock()
			fmt.Fprintf(w, "%-9s %s\n", p, help)
		}
	})
	mux.HandleFunc("/healthz", o.healthz)
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		var since, epoch int64
		for _, p := range []struct {
			name string
			v    *int64
		}{{"since", &since}, {"epoch", &epoch}} {
			if s := r.URL.Query().Get(p.name); s != "" {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil || v < 0 {
					http.Error(w, "bad "+p.name+" parameter", http.StatusBadRequest)
					return
				}
				*p.v = v
			}
		}
		spans, total, born := o.tracer.spansSince(since, epoch) // nil-safe
		if spans == nil {
			spans = []SpanRec{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set(SpansTotalHeader, strconv.FormatInt(total, 10))
		w.Header().Set(SpansEpochHeader, strconv.FormatInt(born, 10))
		// Compact: a full ring is thousands of spans read by a scraper,
		// and indenting them would triple the cost of every scrape.
		if err := json.NewEncoder(w).Encode(spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := o.Reg.writeJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		evs := o.recent(n)
		if evs == nil {
			evs = []Event{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(evs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := o.lookupExtra(r.URL.Path); ok {
			h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Serve serves h (an Observer's Handler, or any other debug endpoint) on
// addr (e.g. "127.0.0.1:0"), returning the bound address and the server:
// close it to stop serving.
func Serve(h http.Handler, addr string) (net.Addr, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return ln.Addr(), srv, nil
}
