package telemetry

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

// serve stands a node's debug endpoint up on loopback and returns its
// address, the form -nodes takes.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

// newTestAggregator builds an aggregator over the nodes; with start it
// polls on testInterval, otherwise the test drives pollOnce itself.
func newTestAggregator(t *testing.T, start bool, nodes ...string) *Aggregator {
	t.Helper()
	a := NewAggregator(AggregatorConfig{Nodes: nodes, Interval: testInterval})
	if start {
		a.Start()
	}
	t.Cleanup(a.Close)
	return a
}

// mutate applies one random batch of metric activity to the registry.
func mutate(reg *obs.Registry, rng *rand.Rand) {
	for i := 0; i < 1+rng.Intn(8); i++ {
		switch rng.Intn(3) {
		case 0:
			reg.Counter(fmt.Sprintf("c%d", rng.Intn(4))).Add(int64(1 + rng.Intn(5)))
		case 1:
			reg.Gauge(fmt.Sprintf("g%d", rng.Intn(3))).Set(rng.Float64() * 10)
		case 2:
			reg.Histogram(fmt.Sprintf("h%d", rng.Intn(2))).Observe(time.Duration(rng.Int63n(1 << 34)))
		}
	}
}

// One node, live registry churning while the aggregator polls it: once
// the churn stops, the next poll's view equals the live registry exactly.
func TestAggregatorConvergesToLiveRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	addr := serve(t, obs.New(obs.Config{Registry: reg}).Handler())
	agg := newTestAggregator(t, true, addr)

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
		if !reflect.DeepEqual(agg.NodeSnapshots()[addr], reg.Snapshot()) {
			return fmt.Errorf("scraped view != live registry")
		}
		return nil
	})
	if st := agg.Nodes()[0]; !st.Up || st.Polls == 0 {
		t.Fatalf("node status = %+v", st)
	}
}

// Two nodes with concurrent writers on each, polled under -race: after
// the writers stop and one more poll, every merged counter equals the sum
// of the live per-node counters bit for bit, and so does every merged
// histogram.
func TestMergedCountersEqualNodeSumsUnderConcurrentWriters(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	var addrs []string
	for _, reg := range regs {
		addrs = append(addrs, serve(t, obs.New(obs.Config{Registry: reg}).Handler()))
	}
	agg := newTestAggregator(t, true, addrs...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, reg := range regs {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
						reg.Counter("requests").Inc()
						reg.Histogram("lat").Observe(time.Duration(rng.Intn(8)) * time.Microsecond)
						mutate(reg, rng)
					}
				}
			}(int64(10*i + w))
		}
	}
	for i := 0; i < 20; i++ {
		_ = agg.State() // readers race the polls
		time.Sleep(testInterval / 4)
	}
	close(stop)
	wg.Wait()
	agg.pollOnce()

	merged, err := agg.MergedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	want := obs.Snapshot{}
	for _, reg := range regs {
		if err := want.Merge(reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged.Counters, want.Counters) {
		t.Fatalf("merged counters != per-node sums:\n got %v\nwant %v", merged.Counters, want.Counters)
	}
	if !reflect.DeepEqual(merged.Histograms, want.Histograms) {
		t.Fatal("merged histograms != per-node sums")
	}
	if merged.Counters["requests"] == 0 {
		t.Fatal("writers never ran")
	}
}

// A node restarts behind the same address with a fresh registry (its
// counters begin again): one poll later its share of the view is the new
// registry exactly, with nothing of the old process left in it.
func TestRestartedNodeIsWholeAfterOnePoll(t *testing.T) {
	var handler atomic.Value
	node := func() *obs.Registry {
		reg := obs.NewRegistry()
		handler.Store(obs.New(obs.Config{Registry: reg}).Handler())
		return reg
	}
	rng := rand.New(rand.NewSource(5))
	reg := node()
	for i := 0; i < 20; i++ {
		mutate(reg, rng)
	}
	addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	agg := newTestAggregator(t, false, addr)
	agg.pollOnce()
	if !reflect.DeepEqual(agg.NodeSnapshots()[addr], reg.Snapshot()) {
		t.Fatal("first poll did not take the live registry")
	}

	reg = node() // the restart
	for i := 0; i < 3; i++ {
		mutate(reg, rng)
	}
	agg.pollOnce()
	if got := agg.NodeSnapshots()[addr]; !reflect.DeepEqual(got, reg.Snapshot()) {
		t.Fatalf("after one poll the restarted node's view is not its registry:\n got %+v\nwant %+v", got, reg.Snapshot())
	}
}

// The span cursor: a poll asks for and takes only the spans past the
// node's total at the previous poll, so nothing is sent or taken twice, and
// spans the node's ring overwrote between two polls read as a drop count
// equal to their number.
func TestSpanCursorNeverDuplicatesAndCountsOverrun(t *testing.T) {
	const ring = 16
	o := obs.New(obs.Config{Tracing: true, SpanRingSize: ring})
	tr := o.Tracer()
	var emitted []obs.SpanID
	emit := func(n int) {
		for i := 0; i < n; i++ {
			s := tr.Start(tr.NewTrace(), 0, "probe", obs.StagePlan, i)
			emitted = append(emitted, s.ID())
			s.End()
		}
	}
	var mu sync.Mutex
	var bodies []string // every /spans response, in poll order
	h := o.Handler()
	agg := newTestAggregator(t, false, serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/spans" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		mu.Lock()
		bodies = append(bodies, rec.Body.String())
		mu.Unlock()
		maps.Copy(w.Header(), rec.Header())
		w.Write(rec.Body.Bytes())
	})))

	emit(5)
	agg.pollOnce() // the first poll takes what the ring holds
	agg.pollOnce() // nothing new: nothing taken
	emit(10)
	agg.pollOnce() // within the ring: all ten, none dropped
	emit(40)
	agg.pollOnce() // the ring keeps the last 16 of 40: 24 overwritten unseen
	agg.pollOnce()

	st := agg.Nodes()[0]
	if st.SpanTotal != 55 || st.SpansDropped != 24 || st.SpansHeld != 31 {
		t.Fatalf("span accounting = %+v, want total 55, dropped 24, held 31", st)
	}
	var want []obs.SpanID
	want = append(want, emitted[:15]...)
	want = append(want, emitted[55-ring:]...)
	var got []obs.SpanID
	for _, s := range agg.spans() {
		got = append(got, s.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("held spans %v, want %v", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	var sent []int
	for _, b := range bodies {
		var spans []obs.SpanRec
		if err := json.Unmarshal([]byte(b), &spans); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, len(spans))
	}
	if !reflect.DeepEqual(sent, []int{5, 0, 10, ring, 0}) || strings.TrimSpace(bodies[1]) != "[]" {
		t.Fatalf("spans sent per poll = %v (nothing-new body %q), want [5 0 10 %d 0] and []", sent, bodies[1], ring)
	}
}

// A node that restarts and completes more spans than the old cursor
// before the next poll is still a restart: its tracer's epoch changed, so
// the aggregator takes its whole ring, drops nothing and moves the cursor
// to the new count.
func TestRestartPastTheCursorTakesTheWholeRing(t *testing.T) {
	var handler atomic.Value
	node := func(name string, spans int) []obs.SpanID {
		o := obs.New(obs.Config{Tracing: true, SpanRingSize: 64})
		tr := o.Tracer()
		tr.SeedIDs(NodeIDBase(name))
		var ids []obs.SpanID
		for i := 0; i < spans; i++ {
			s := tr.Start(tr.NewTrace(), 0, "probe", obs.StagePlan, i)
			ids = append(ids, s.ID())
			s.End()
		}
		handler.Store(o.Handler())
		return ids
	}
	old := node("before", 10)
	addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	agg := newTestAggregator(t, false, addr)
	agg.pollOnce()             // cursor 10
	fresh := node("after", 25) // the restart, 25 spans retained by the next poll
	agg.pollOnce()

	st := agg.Nodes()[0]
	if st.SpanTotal != 25 || st.SpansDropped != 0 {
		t.Fatalf("span accounting = %+v, want total 25, dropped 0", st)
	}
	var got []obs.SpanID
	for _, s := range agg.spans() {
		got = append(got, s.ID)
	}
	if want := append(old, fresh...); !reflect.DeepEqual(got, want) {
		t.Fatalf("held spans %v, want the old node's 10 and all 25 new %v", got, want)
	}
}

// testNode is one in-process junctiond stand-in: a sharded federated
// plane behind a qosnet server, traced by an observer whose debug
// endpoint is what the aggregator scrapes.
type testNode struct {
	o    *obs.Observer
	srv  *qosnet.Server
	addr string
}

func startTestNode(t *testing.T, name string) *testNode {
	t.Helper()
	n := &testNode{o: obs.New(obs.Config{Tracing: true, SpanRingSize: 1 << 12})}
	n.o.Tracer().SeedIDs(NodeIDBase(name))
	plane, err := fed.New(fed.Config{Procs: 16, Shards: 2, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.srv, err = qosnet.ListenAndServe(plane, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.srv.Close() })
	n.srv.Instrument(qosnet.Instruments{Tracer: n.o.Tracer()})
	n.addr = serve(t, n.o.Handler())
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
	agg := newTestAggregator(t, true, nodes[0].addr, nodes[1].addr)

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
					n.o.Reg.Counter("node_requests").Inc()
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
		snaps := agg.NodeSnapshots()
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
