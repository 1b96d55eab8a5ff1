package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"milan/internal/obs"
	"milan/internal/obs/latency"
)

// Cluster property: the aggregator's merged per-phase latency
// histograms must equal the per-node sums BIT-FOR-BIT after a scrape of
// each node's /metrics (JSON → decode → merge).  Phase
// durations are integer nanoseconds, so the float64 bucket sums stay
// exactly representable and reflect.DeepEqual is the honest check.
func TestMergedPhaseHistogramsEqualNodeSums(t *testing.T) {
	const nodes = 3
	regs := make([]*obs.Registry, nodes)
	addrs := make([]string, nodes)
	rng := rand.New(rand.NewSource(99))
	for i := range regs {
		regs[i] = obs.NewRegistry()
		lp := latency.New(regs[i])
		// Drive admissions with per-node-distinct phase durations.
		for j := 0; j < 50+i*17; j++ {
			var durs [latency.NumPhases]int64
			total := int64(0)
			for ph := range durs {
				durs[ph] = rng.Int63n(1 << 20)
				total += durs[ph]
			}
			lp.Done(rng.Uint64(), int64(j), int32(i), total, durs, int64(j))
		}
		addrs[i] = serveLatency(t, regs[i], lp)
	}
	agg := newTestAggregator(t, true, addrs...)

	// Expected: the direct merge of the live per-node snapshots.
	histNames := []string{"latency_admit_ns"}
	for _, ph := range latency.PhaseNames() {
		histNames = append(histNames, "latency_phase_"+ph+"_ns")
	}
	var sum obs.Snapshot
	for i, reg := range regs {
		snap := reg.Snapshot()
		for _, name := range histNames {
			if _, ok := snap.Histograms[name]; !ok {
				t.Fatalf("node %d registry missing %s", i, name)
			}
		}
		if err := sum.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	want := sum.Histograms

	waitFor(t, 5e9, func() error {
		merged, err := agg.MergedRegistry()
		if err != nil {
			return err
		}
		for _, name := range histNames {
			got, ok := merged.Histograms[name]
			if !ok {
				return fmt.Errorf("merged registry missing %s", name)
			}
			if !reflect.DeepEqual(got, want[name]) {
				return fmt.Errorf("%s: merged != per-node sum\n got %+v\nwant %+v", name, got, want[name])
			}
		}
		return nil
	})
}

// serveLatency serves a node's debug endpoint with its latency plane
// mounted, as junctiond does.
func serveLatency(t *testing.T, reg *obs.Registry, lp *latency.Plane) string {
	o := obs.New(obs.Config{Registry: reg})
	o.Handle("/latency", lp.Handler(), "admission latency anatomy")
	return serve(t, o.Handler())
}

// Exemplars flow node /latency -> aggregator: the merged top-K must
// contain the cluster-slowest request with its waterfall intact.
func TestAggregatorMergesExemplars(t *testing.T) {
	reg := obs.NewRegistry()
	lp := latency.New(reg)
	var durs [latency.NumPhases]int64
	durs[1] = 50_000_000 // probe-dominated waterfall
	lp.Done(0xabcd, 7, 2, 50_100_000, durs, 0)
	agg := newTestAggregator(t, true, serveLatency(t, reg, lp))

	waitFor(t, 5e9, func() error {
		got := agg.mergedExemplars(4)
		if len(got) == 0 {
			return fmt.Errorf("no exemplars merged yet")
		}
		e := got[0]
		if e.Trace != 0xabcd || e.Total != 50_100_000 || e.Durs[1] != 50_000_000 {
			return fmt.Errorf("exemplar drifted through the scrape: %+v", e)
		}
		return nil
	})
	view := agg.clusterLatency(4)
	if len(view.Exemplars) == 0 || view.Exemplars[0].Trace != 0xabcd {
		t.Fatalf("latency view missing the exemplar: %+v", view.Exemplars)
	}
}
