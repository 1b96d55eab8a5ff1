package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"milan/internal/obs"
)

// WritePromLabeled must emit one HELP/TYPE header per metric family and
// one node-labeled sample per node, with histogram buckets cumulative.
func TestWritePromLabeled(t *testing.T) {
	snaps := map[string]obs.Snapshot{
		"n1": {
			Counters:   map[string]int64{"jobs_admitted": 5},
			Gauges:     map[string]float64{"inflight": 2},
			Histograms: map[string]obs.HistSnapshot{"lat": {Lo: 0, Hi: 1, Buckets: []int64{3, 1}, Under: 0, Over: 1, Count: 5, Sum: 2.5}},
			Stats:      map[string]obs.StatSnapshot{"slack": {N: 4, Mean: 0.5, Std: 0.1}},
		},
		"n2": {Counters: map[string]int64{"jobs_admitted": 7}},
	}
	var sb strings.Builder
	if err := WritePromLabeled(&sb, snaps, map[string]string{"jobs_admitted": "Jobs admitted."}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP jobs_admitted Jobs admitted.",
		"# TYPE jobs_admitted counter",
		`jobs_admitted{node="n1"} 5`,
		`jobs_admitted{node="n2"} 7`,
		`inflight{node="n1"} 2`,
		`lat_count{node="n1"} 5`,
		`lat_sum{node="n1"} 2.5`,
		`slack_mean{node="n1"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets: le="1" must equal the total in-range+under
	// count and the +Inf bucket the full count.
	if !strings.Contains(out, `le="+Inf"`) {
		t.Fatalf("no +Inf bucket in:\n%s", out)
	}
	if n := strings.Count(out, "# TYPE jobs_admitted counter"); n != 1 {
		t.Fatalf("HELP/TYPE emitted %d times, want once per family", n)
	}
}

// The cluster endpoints must serve: JSON /metrics with merged == node
// sums, Prometheus /metrics on content negotiation, /nodes, /healthz.
func TestHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jobs_admitted").Add(3)
	node := httptest.NewServer(obs.New(obs.Config{Registry: reg}).Handler())
	defer node.Close()
	addr := node.Listener.Addr().String()
	agg := newTestAggregator(t, false, addr)
	agg.pollOnce()
	h := agg.Handler()

	// JSON /metrics.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var body struct {
		Merged obs.Snapshot            `json:"merged"`
		Nodes  map[string]obs.Snapshot `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Merged.Counters["jobs_admitted"] != 3 || body.Nodes[addr].Counters["jobs_admitted"] != 3 {
		t.Fatalf("merged/per-node mismatch: %+v", body)
	}

	// Prometheus /metrics via ?format=prom, labelled by node address.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	if want := `jobs_admitted{node="` + addr + `"} 3`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("prom exposition missing %s:\n%s", want, rec.Body.String())
	}

	// /nodes reports the node up.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nodes", nil))
	var nodes []NodeStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || !nodes[0].Up || nodes[0].Addr != addr || nodes[0].Polls != 1 {
		t.Fatalf("/nodes = %+v", nodes)
	}

	// /healthz is 200 while the node answers, 503 once a poll fails.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d with node up", rec.Code)
	}
	node.Close()
	agg.pollOnce()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz = %d with node down", rec.Code)
	}

	// /state is one self-contained JSON document, and keeps the down
	// node's last view.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/state", nil))
	var st ClusterState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/state: %v", err)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Up || st.Merged.Counters["jobs_admitted"] != 3 {
		t.Fatalf("/state = %+v", st)
	}
}

// Conformance pin for the per-node exposition's histogram families:
// cumulative counts over strictly-increasing le bounds PER NODE, under-
// range observations folded into the first bucket, over-range visible
// only in the mandatory +Inf bucket, and +Inf == _count.  Uses a
// log-linear histogram so the le values exercise the Bounds-based path.
func TestWritePromLabeledHistogramConformance(t *testing.T) {
	mk := func(seed float64) obs.HistSnapshot {
		reg := obs.NewRegistry()
		h := reg.HistogramLogLinear("lat", 8, 6, 4)
		h.Observe(1)    // under range
		h.Observe(seed) // in range
		h.Observe(seed * 2)
		h.Observe(1e18) // over range
		return h.Snapshot()
	}
	snaps := map[string]obs.Snapshot{
		"n1": {Histograms: map[string]obs.HistSnapshot{"lat": mk(400)}},
		"n2": {Histograms: map[string]obs.HistSnapshot{"lat": mk(900)}},
	}
	var sb strings.Builder
	if err := WritePromLabeled(&sb, snaps, nil); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n1", "n2"} {
		prevLE := -1.0
		prevCum := int64(-1)
		var infCum, count int64
		sawInf, sawSum, sawCount := false, false, false
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "lat_bucket{") && strings.Contains(line, `node="`+node+`"`):
				var le string
				var cum int64
				if strings.Contains(line, `le="+Inf"`) {
					if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
						t.Fatalf("bad +Inf line %q: %v", line, err)
					}
					sawInf, infCum = true, cum
					continue
				}
				if _, err := fmt.Sscanf(line, `lat_bucket{node="`+node+`",le="%s`, &le); err != nil {
					t.Fatalf("unparseable bucket line %q: %v", line, err)
				}
				le = strings.TrimSuffix(le, `"}`)
				var f float64
				if _, err := fmt.Sscanf(le, "%g", &f); err != nil {
					t.Fatalf("le %q not a float in %q: %v", le, line, err)
				}
				if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
					t.Fatalf("bad count in %q: %v", line, err)
				}
				if sawInf {
					t.Fatalf("finite bucket after +Inf for %s: %q", node, line)
				}
				if f <= prevLE {
					t.Fatalf("%s: le not strictly increasing: %v after %v", node, f, prevLE)
				}
				if cum < prevCum {
					t.Fatalf("%s: cumulative count decreased: %d after %d", node, cum, prevCum)
				}
				prevLE, prevCum = f, cum
			case strings.HasPrefix(line, "lat_sum{node=\""+node+"\"}"):
				sawSum = true
			case strings.HasPrefix(line, "lat_count{node=\""+node+"\"}"):
				if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count); err != nil {
					t.Fatalf("bad _count line %q: %v", line, err)
				}
				sawCount = true
			}
		}
		if !sawInf || !sawSum || !sawCount {
			t.Fatalf("%s: missing +Inf/_sum/_count (inf=%v sum=%v count=%v)", node, sawInf, sawSum, sawCount)
		}
		if count != 4 {
			t.Fatalf("%s: _count = %d, want 4", node, count)
		}
		if infCum != count {
			t.Fatalf("%s: +Inf bucket %d != _count %d", node, infCum, count)
		}
		if prevCum != 3 {
			t.Fatalf("%s: last finite bucket %d, want 3 (over-range only in +Inf)", node, prevCum)
		}
	}
}
