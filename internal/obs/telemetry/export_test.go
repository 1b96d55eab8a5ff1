package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/qos/qosnet"
)

const testInterval = 20 * time.Millisecond

func waitFor(t *testing.T, timeout time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		if err = cond(); err == nil {
			return
		}
		time.Sleep(testInterval)
	}
	t.Fatalf("condition never held: %v", err)
}

// stripSelf drops the exporter's own telemetry_* metrics: they count
// frame writes, so they advance as a side effect of being exported and
// can never be compared against a live registry at a single instant.
func stripSelf(s obs.Snapshot) obs.Snapshot {
	out := s.Clone()
	for _, m := range []map[string]int64{out.Counters} {
		for name := range m {
			if strings.HasPrefix(name, "telemetry_") {
				delete(m, name)
			}
		}
	}
	for name := range out.Gauges {
		if strings.HasPrefix(name, "telemetry_") {
			delete(out.Gauges, name)
		}
	}
	return out
}

func newTestExporter(t *testing.T, node, addr string, src Sources) *Exporter {
	t.Helper()
	e := NewExporter(ExporterConfig{Node: node, Interval: testInterval}, src)
	if err := e.ListenAndServe(addr); err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestAggregator(t *testing.T, nodes ...string) *Aggregator {
	t.Helper()
	a := NewAggregator(AggregatorConfig{
		Nodes:    nodes,
		RetryMin: testInterval,
		RetryMax: 4 * testInterval,
	})
	a.Start()
	t.Cleanup(a.Close)
	return a
}

// One node, live registry churning concurrently with the stream: once
// the churn stops, the aggregator's accumulated view must equal the live
// registry exactly (snapshot + contiguous deltas, nothing lost).
func TestAggregatorConvergesToLiveRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	exp := newTestExporter(t, "n1", "127.0.0.1:0", Sources{Registry: reg})
	defer exp.Close()
	agg := newTestAggregator(t, exp.Addr())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
				mutate(reg, rng)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(10 * testInterval)
	close(stop)
	wg.Wait()

	waitFor(t, 5*time.Second, func() error {
		snaps, _ := agg.NodeSnapshots()
		acc, ok := snaps["n1"]
		if !ok {
			return fmt.Errorf("no accumulated snapshot yet")
		}
		if !reflect.DeepEqual(stripSelf(acc), stripSelf(reg.Snapshot())) {
			return fmt.Errorf("accumulated view != live registry")
		}
		return nil
	})
	if st := agg.Nodes()[0]; !st.Connected || st.Frames == 0 || st.DeltaSeq == 0 {
		t.Fatalf("node status = %+v", st)
	}
}

// Kill-and-reconnect: the exporter process dies mid-stream and a new one
// (same registry, same address) takes over.  The aggregator must resync
// via the new session's snapshot and converge again — including the churn
// that happened while the stream was down.
func TestAggregatorResyncsAfterExporterRestart(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(5))
	mutate(reg, rng)

	exp := newTestExporter(t, "n1", "127.0.0.1:0", Sources{Registry: reg})
	addr := exp.Addr()
	agg := newTestAggregator(t, addr)

	waitFor(t, 5*time.Second, func() error {
		st := agg.Nodes()[0]
		if !st.Connected || st.Frames == 0 {
			return fmt.Errorf("not connected: %+v", st)
		}
		return nil
	})

	// Kill the exporter; churn the registry while the stream is dark.
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mutate(reg, rng)
	}

	// A new exporter takes over the same address (a restarted junctiond).
	var exp2 *Exporter
	waitFor(t, 5*time.Second, func() error {
		e := NewExporter(ExporterConfig{Node: "n1", Interval: testInterval}, Sources{Registry: reg})
		if err := e.ListenAndServe(addr); err != nil {
			e.Close()
			return err
		}
		exp2 = e
		return nil
	})
	defer exp2.Close()

	waitFor(t, 10*time.Second, func() error {
		st := agg.Nodes()[0]
		if !st.Connected {
			return fmt.Errorf("not reconnected: %+v", st)
		}
		if st.Resyncs < 1 {
			return fmt.Errorf("resyncs = %d, want >= 1 (the post-restart snapshot supersedes)", st.Resyncs)
		}
		snaps, _ := agg.NodeSnapshots()
		if !reflect.DeepEqual(stripSelf(snaps["n1"]), stripSelf(reg.Snapshot())) {
			return fmt.Errorf("post-restart view has not converged")
		}
		return nil
	})
}

// testNode is one in-process junctiond stand-in: a sharded federated
// plane behind a qosnet server, with a seeded tracer and an exporter.
type testNode struct {
	name string
	reg  *obs.Registry
	tr   *obs.Tracer
	srv  *qosnet.Server
	exp  *Exporter
}

func startTestNode(t *testing.T, name string) *testNode {
	t.Helper()
	n := &testNode{name: name, reg: obs.NewRegistry(), tr: obs.NewTracer(1 << 12)}
	n.tr.SeedIDs(NodeIDBase(name))
	plane, err := fed.New(fed.Config{Procs: 16, Shards: 2, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.srv, err = qosnet.ListenAndServe(plane, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.srv.Close() })
	n.srv.Instrument(qosnet.Instruments{Tracer: n.tr})
	n.exp = newTestExporter(t, name, "127.0.0.1:0", Sources{Registry: n.reg, Tracer: n.tr})
	t.Cleanup(func() { n.exp.Close() })
	return n
}

// Cross-process span propagation under -race: concurrent qosnet clients
// mint root spans in their own ID range, negotiate against two traced
// server nodes, and the aggregator must (a) merge both registries into
// exactly the per-node sum, bit for bit on counters, and (b) stitch
// client-rooted trees whose arrival/route/plan/reserve/run stages span
// both ID ranges — proof the trace identity crossed the wire.
func TestCrossProcessSpanStitchingConcurrentClients(t *testing.T) {
	nodes := []*testNode{startTestNode(t, "nodeA"), startTestNode(t, "nodeB")}
	agg := newTestAggregator(t, nodes[0].exp.Addr(), nodes[1].exp.Addr())

	const clients, perClient = 4, 8
	clientTr := obs.NewTracer(1 << 12)
	clientTr.SeedIDs(NodeIDBase("client"))

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for _, n := range nodes {
			wg.Add(1)
			go func(c int, n *testNode) {
				defer wg.Done()
				cli, err := qosnet.Dial(n.srv.Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				defer cli.Close()
				for i := 0; i < perClient; i++ {
					job := core.Job{ID: c*1000 + i, Chains: []core.Chain{{
						Quality: 1,
						Tasks:   []core.Task{{Procs: 1, Duration: 1, Deadline: 1e9, Quality: 1}},
					}}}
					root := clientTr.Start(clientTr.NewTrace(), 0, "client.submit", obs.StageArrival, job.ID)
					job.Trace, job.Span = uint64(root.Trace()), uint64(root.ID())
					g, err := cli.Negotiate(job)
					if err == nil {
						run := clientTr.StartAt(obs.TraceID(job.Trace), root.ID(), "job.run", obs.StageRun, job.ID, g.Placement.Start())
						run.EndAt(g.Placement.Finish())
					}
					root.End()
					n.reg.Counter("node_requests").Inc()
				}
			}(c, n)
		}
	}
	wg.Wait()
	agg.InjectSpans("client", clientTr.Spans())

	clientBase := NodeIDBase("client") >> 32
	waitFor(t, 10*time.Second, func() error {
		merged, err := agg.MergedRegistry()
		if err != nil {
			return err
		}
		snaps, _ := agg.NodeSnapshots()
		if len(snaps) != len(nodes) {
			return fmt.Errorf("%d/%d node snapshots", len(snaps), len(nodes))
		}
		sums := make(map[string]int64)
		for _, s := range snaps {
			for name, v := range s.Counters {
				sums[name] += v
			}
		}
		if len(sums) != len(merged.Counters) {
			return fmt.Errorf("merged has %d counters, sum has %d", len(merged.Counters), len(sums))
		}
		for name, want := range sums {
			if merged.Counters[name] != want {
				return fmt.Errorf("merged[%s] = %d, per-node sum = %d", name, merged.Counters[name], want)
			}
		}
		if got := sums["node_requests"]; got != int64(clients*perClient*len(nodes)) {
			return fmt.Errorf("node_requests = %d, want %d", got, clients*perClient*len(nodes))
		}

		for _, tree := range agg.SpanTrees() {
			if tree.FindStage(obs.StageArrival) == nil ||
				tree.FindStage(obs.StageRoute) == nil ||
				tree.FindStage(obs.StagePlan) == nil ||
				tree.FindStage(obs.StageReserve) == nil ||
				tree.FindStage(obs.StageRun) == nil {
				continue
			}
			origins := make(map[uint64]bool)
			tree.Walk(func(n *obs.SpanNode) {
				if n.ID != 0 {
					origins[uint64(n.ID)>>32] = true
				}
			})
			if len(origins) >= 2 && origins[clientBase] {
				return nil
			}
		}
		return fmt.Errorf("no stitched cross-process tree yet")
	})
}

// The nil-hook contract's "attached but idle" case: with an exporter
// hooked to the tracer and zero subscribers connected, a span start+end
// must allocate exactly what it allocates with no exporter at all.
func TestAttachedIdleExporterAddsNoAllocs(t *testing.T) {
	span := func(tr *obs.Tracer) {
		s := tr.Start(tr.NewTrace(), 0, "probe", obs.StagePlan, 1)
		s.End()
	}
	plain := obs.NewTracer(1 << 10)
	attached := obs.NewTracer(1 << 10)
	exp := NewExporter(ExporterConfig{Node: "idle"}, Sources{Tracer: attached})
	defer exp.Close()

	base := testing.AllocsPerRun(500, func() { span(plain) })
	idle := testing.AllocsPerRun(500, func() { span(attached) })
	if idle != base {
		t.Fatalf("attached-but-idle exporter changed span cost: %.1f allocs vs %.1f", idle, base)
	}
}
