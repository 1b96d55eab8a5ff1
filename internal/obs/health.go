package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
)

// healthCheck is one named readiness probe served by /healthz.
type healthCheck struct {
	name  string
	check func() error
}

// extraRoute is one dynamically mounted debug-endpoint extension.
type extraRoute struct {
	handler http.Handler
	help    string
}

// Handle mounts an extra handler on the observer's debug endpoint at the
// given path (e.g. "/slo"), listed in the endpoint index with the given
// one-line help.  A pattern ending in "/" matches the whole subtree
// rooted there (longest prefix wins, exact matches first) — the pprof
// mount relies on this.  Extensions may be mounted before or after
// Handler() is called; the dispatch is dynamic.  Mounting a nil handler
// removes the route.
func (o *Observer) Handle(pattern string, h http.Handler, help string) {
	o.webMu.Lock()
	defer o.webMu.Unlock()
	if h == nil {
		delete(o.extra, pattern)
		return
	}
	if o.extra == nil {
		o.extra = make(map[string]extraRoute)
	}
	o.extra[pattern] = extraRoute{handler: h, help: help}
}

// AddHealthCheck registers a named readiness check run by every /healthz
// request.  A nil error means healthy.  Checks run in registration order;
// re-registering a name replaces the check.
func (o *Observer) AddHealthCheck(name string, check func() error) {
	if check == nil {
		return
	}
	o.webMu.Lock()
	defer o.webMu.Unlock()
	for i := range o.checks {
		if o.checks[i].name == name {
			o.checks[i].check = check
			return
		}
	}
	o.checks = append(o.checks, healthCheck{name: name, check: check})
}

// healthStatus is the /healthz response body.
type healthStatus struct {
	Status string            `json:"status"` // "ok" or "unhealthy"
	Checks map[string]string `json:"checks,omitempty"`
}

// health runs every registered check and reports the aggregate: liveness
// is implied by answering at all, readiness by every check passing.
func (o *Observer) health() healthStatus {
	o.webMu.Lock()
	checks := append([]healthCheck(nil), o.checks...)
	o.webMu.Unlock()
	st := healthStatus{Status: "ok"}
	if len(checks) > 0 {
		st.Checks = make(map[string]string, len(checks))
	}
	for _, c := range checks {
		if err := c.check(); err != nil {
			st.Status = "unhealthy"
			st.Checks[c.name] = err.Error()
		} else {
			st.Checks[c.name] = "ok"
		}
	}
	return st
}

// healthz serves the /healthz endpoint: HTTP 200 with {"status":"ok"}
// when every registered check passes, 503 otherwise, with per-check
// detail either way.
func (o *Observer) healthz(w http.ResponseWriter, _ *http.Request) {
	st := o.health()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// extraRoutes returns the mounted extension paths in sorted order (for
// the endpoint index).
func (o *Observer) extraRoutes() []string {
	o.webMu.Lock()
	defer o.webMu.Unlock()
	out := make([]string, 0, len(o.extra))
	for p := range o.extra {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// lookupExtra returns the extension handler mounted at path: an exact
// match first, otherwise the longest registered "/"-terminated prefix
// covering the path (subtree mounts like /debug/pprof/).
func (o *Observer) lookupExtra(path string) (http.Handler, bool) {
	o.webMu.Lock()
	defer o.webMu.Unlock()
	if r, ok := o.extra[path]; ok {
		return r.handler, true
	}
	var (
		best    string
		handler http.Handler
	)
	for p, r := range o.extra {
		if strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) && len(p) > len(best) {
			best, handler = p, r.handler
		}
	}
	return handler, handler != nil
}
