package telemetry

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"milan/internal/durable"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/slo"
)

// A gauge is one node's level, so the cluster view merges none: a
// poisoned node's durable_poisoned = 1 must not vanish behind a healthy
// node whose address sorts after it.  It stays readable under "nodes".
func TestMergedViewCarriesNoGauges(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	var addrs []string
	for _, reg := range regs {
		addrs = append(addrs, serve(t, obs.New(obs.Config{Registry: reg}).Handler()))
	}
	poisoned, healthy := 0, 1
	if addrs[0] > addrs[1] { // the healthy node merges last
		poisoned, healthy = 1, 0
	}
	durable.NewMetrics(regs[poisoned]).Poisoned.Set(1)
	durable.NewMetrics(regs[healthy]).Poisoned.Set(0)
	agg := newTestAggregator(t, false, addrs...)
	agg.pollOnce()

	rec := httptest.NewRecorder()
	agg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var view struct {
		Merged map[string]json.RawMessage `json:"merged"`
		Nodes  map[string]obs.Snapshot    `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if g, ok := view.Merged["gauges"]; ok {
		t.Errorf("merged view has gauges %s, want none", g)
	}
	if got := view.Nodes[addrs[poisoned]].Gauges["durable_poisoned"]; got != 1 {
		t.Errorf("poisoned node's durable_poisoned = %v, want 1", got)
	}
	if got, ok := view.Nodes[addrs[healthy]].Gauges["durable_poisoned"]; !ok || got != 0 {
		t.Errorf("healthy node's durable_poisoned = %v (present %v), want 0", got, ok)
	}
}

// Every registry distribution counts integer nanoseconds on one layout,
// so the cluster view of durable_append_ns and latency_admit_ns (fed
// through each node's SLO engine's latency plane) is bit-equal — buckets,
// count and sum — to one registry fed both nodes' streams.
func TestMergedDistributionsEqualOneRegistryFedBoth(t *testing.T) {
	const appendNs, admitNs = "durable_append_ns", "latency_admit_ns"
	type node struct {
		met *durable.Metrics
		eng *slo.Engine
	}
	newNode := func(reg *obs.Registry) node {
		return node{durable.NewMetrics(reg), slo.New(slo.Options{Registry: reg})}
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	nodes := []node{newNode(regs[0]), newNode(regs[1])}
	bothReg := obs.NewRegistry()
	both := newNode(bothReg)

	rng := rand.New(rand.NewSource(40))
	// Durations from under the layout's 256 ns floor to past its ~8.6 s
	// ceiling.
	draw := func() time.Duration { return time.Duration(rng.Int63n(1<<34)) >> rng.Intn(30) }
	for i := 0; i < 4000; i++ {
		n := nodes[rng.Intn(2)]
		d := draw()
		n.met.AppendLatency.Observe(d)
		both.met.AppendLatency.Observe(d)
		d = draw()
		rejected := rng.Intn(3) == 0
		for _, e := range []*slo.Engine{n.eng, both.eng} {
			e.Latency().Done(uint64(i+1), int64(i), 0, int64(d), [latency.NumPhases]int64{}, 0)
			if rejected {
				e.JobRejected()
			} else {
				e.JobAdmitted(i, uint64(i+1), float64(i), float64(i+10), float64(i+5))
			}
		}
	}

	var addrs []string
	for _, reg := range regs {
		addrs = append(addrs, serve(t, obs.New(obs.Config{Registry: reg}).Handler()))
	}
	agg := newTestAggregator(t, false, addrs...)
	agg.pollOnce()
	merged, err := agg.MergedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	want := bothReg.Snapshot()
	for _, name := range []string{appendNs, admitNs} {
		got, exp := merged.Histograms[name], want.Histograms[name]
		if exp.Count != 4000 || exp.Under == 0 || exp.Over == 0 {
			t.Fatalf("%s: stream does not span the layout: %+v", name, exp)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s: merged count/sum/under/over %d/%d/%d/%d (buckets %v), one registry %d/%d/%d/%d (buckets %v)",
				name, got.Count, got.Sum, got.Under, got.Over, got.Buckets, exp.Count, exp.Sum, exp.Under, exp.Over, exp.Buckets)
		}
	}
}
