package qosnet

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

// arrivalSpans returns the server's arrival spans among recs, in completion
// order.
func arrivalSpans(recs []obs.SpanRec) []obs.SpanRec {
	var out []obs.SpanRec
	for _, r := range recs {
		if r.Name == "qosnet.negotiate" && r.Stage == obs.StageArrival {
			out = append(out, r)
		}
	}
	return out
}

// TestServerMintsRootSpanForUntracedRequests: the server is the trace
// ingress — a request arriving without a trace identity gets a root arrival
// span with its admission phases under it, and the grant echoes the minted
// trace back across the wire.
func TestServerMintsRootSpanForUntracedRequests(t *testing.T) {
	srv, cli := startServer(t, 8)
	tr := obs.NewTracer(64)
	srv.Instrument(Instruments{Tracer: tr})

	g, err := cli.Negotiate(job(1, 4, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if g.Trace == 0 {
		t.Fatal("grant carries no trace identity")
	}
	root := obs.BuildSpanTrees(tr.Spans())[obs.TraceID(g.Trace)]
	if root == nil || root.Name != "qosnet.negotiate" || root.Stage != obs.StageArrival || root.Parent != 0 {
		t.Fatalf("spans = %+v", tr.Spans())
	}
	for _, stage := range []string{obs.StageRoute, obs.StagePlan, obs.StageReserve} {
		if n := root.FindStage(stage); n == nil || n.Parent != root.ID {
			t.Fatalf("no %s child under the server's root: %+v", stage, tr.Spans())
		}
	}

	// A rejection still closes the root span, marked failed.
	if _, err := cli.Negotiate(job(2, 64, 10, 20)); err == nil {
		t.Fatal("oversized job admitted")
	}
	roots := arrivalSpans(tr.Spans())
	if len(roots) != 2 || roots[1].Err == "" || roots[1].Trace == roots[0].Trace {
		t.Fatalf("arrival spans after a rejection = %+v", roots)
	}
}

// TestPreTracedRequestKeepsItsIdentity: a job already carrying a trace
// (minted upstream, by a client or another tier) is not reminted: its
// identity round-trips untouched and the server's arrival span, with the
// admission phases under it, hangs off the span the request named.
func TestPreTracedRequestKeepsItsIdentity(t *testing.T) {
	srv, cli := startServer(t, 8)
	tr := obs.NewTracer(64)
	srv.Instrument(Instruments{Tracer: tr})

	j := job(3, 4, 10, 20)
	j.Trace, j.Span = 777, 13
	g, err := cli.Negotiate(j)
	if err != nil {
		t.Fatal(err)
	}
	if g.Trace != 777 {
		t.Fatalf("grant trace = %d, want 777 (propagated, not reminted)", g.Trace)
	}
	roots := arrivalSpans(tr.Spans())
	if len(roots) != 1 || roots[0].Trace != 777 || roots[0].Parent != 13 {
		t.Fatalf("server arrival spans of a pre-traced request = %+v", roots)
	}
	for _, sp := range tr.Spans() {
		if sp.Trace != 777 || (sp.ID != roots[0].ID && sp.Parent != roots[0].ID) {
			t.Fatalf("span outside the caller's trace or the server's arrival span: %+v", sp)
		}
	}
}

// TestSpanPropagationConcurrentRoundTrips hammers one instrumented server
// from many connections — run under -race in CI.  Every grant must carry a
// unique nonzero trace, the tracer must hold exactly one arrival span per
// request, and the callback must see every request, traced.
func TestSpanPropagationConcurrentRoundTrips(t *testing.T) {
	const clients, perClient = 8, 25
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(arb, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := obs.NewTracer(clients * perClient * (1 + phase.Num))
	var decisions atomic.Int64
	srv.Instrument(Instruments{Tracer: tr, OnDecision: func(j core.Job, g *qos.Grant, err error) {
		decisions.Add(1)
		if j.Trace == 0 {
			t.Error("decision callback saw an untraced job")
		}
	}})

	var wg sync.WaitGroup
	traces := make(chan uint64, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < perClient; i++ {
				// Immediate deadline pressure keeps a mix of grants and
				// rejections flowing.
				g, err := cli.Negotiate(job(c*1000+i, 2, 1, 1e9))
				if err != nil {
					continue
				}
				traces <- g.Trace
			}
		}(c)
	}
	wg.Wait()
	close(traces)
	seen := make(map[uint64]bool)
	for tc := range traces {
		if tc == 0 {
			t.Fatal("zero trace on a granted request")
		}
		if seen[tc] {
			t.Fatalf("trace %d reused across requests", tc)
		}
		seen[tc] = true
	}
	if got := len(arrivalSpans(tr.Spans())); got != clients*perClient {
		t.Fatalf("arrival spans = %d, want %d", got, clients*perClient)
	}
	if got := decisions.Load(); got != clients*perClient {
		t.Fatalf("decision callback saw %d, want %d", got, clients*perClient)
	}
}

// TestInstrumentRemovable: installing the zero Instruments restores the
// direct-call path — no trace minted, no span, no callback.
func TestInstrumentRemovable(t *testing.T) {
	srv, cli := startServer(t, 8)
	tr := obs.NewTracer(8)
	var calls atomic.Int64
	srv.Instrument(Instruments{Tracer: tr, OnDecision: func(core.Job, *qos.Grant, error) { calls.Add(1) }})
	srv.Instrument(Instruments{})
	if srv.instruments.Load() != nil {
		t.Fatal("the zero Instruments left an installation behind")
	}
	g, err := cli.Negotiate(job(1, 4, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if g.Trace != 0 || len(tr.Spans()) != 0 || calls.Load() != 0 {
		t.Fatalf("removed instruments still at work: trace %d, %d spans, %d callbacks", g.Trace, len(tr.Spans()), calls.Load())
	}
}

// TestInstallationsNeverMix: the instruments are installed together and a
// request loads them once, so while two installations are being swapped
// under load every callback sees only traces its own installation's tracer
// minted (the two tracers mint from disjoint ID ranges).
func TestInstallationsNeverMix(t *testing.T) {
	srv, _ := startServer(t, 8)
	installation := func(idRange uint64) Instruments {
		tr := obs.NewTracer(64)
		tr.SeedIDs(idRange << 32)
		return Instruments{Tracer: tr, OnDecision: func(j core.Job, _ *qos.Grant, _ error) {
			if j.Trace>>32 != idRange {
				t.Errorf("installation %d's callback saw trace %#x", idRange, j.Trace)
			}
		}}
	}
	a, b := installation(1), installation(2)
	srv.Instrument(a)
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srv.Instrument(b)
			} else {
				srv.Instrument(a)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 200; i++ {
				_, _ = cli.Negotiate(job(c*1000+i, 64, 1, 1e9)) // refused: the plane stays empty
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}

// TestDecisionCallbackRunsOffTheRecord: the callback runs after the
// request's record has ended and reached the latency plane, so however
// long the auditor's bookkeeping takes, none of it is billed to the
// request's ack phase or its end-to-end latency.
func TestDecisionCallbackRunsOffTheRecord(t *testing.T) {
	const bookkeeping = 50 * time.Millisecond
	srv, cli := startServer(t, 8)
	lp := latency.New(obs.NewRegistry())
	var timed atomic.Int64 // set before the response is written
	srv.Instrument(Instruments{Latency: lp, OnDecision: func(core.Job, *qos.Grant, error) {
		timed.Store(lp.TargetCount().Total)
		time.Sleep(bookkeeping)
	}})
	if _, err := cli.Negotiate(job(1, 4, 10, 20)); err != nil {
		t.Fatal(err)
	}
	ex := exemplars(t, lp)
	if len(ex) != 1 {
		t.Fatalf("%d latency exemplars, want 1", len(ex))
	}
	// ack is the waterfall's last phase.
	if ack := time.Duration(ex[0].Durs[latency.NumPhases-1]); ack >= bookkeeping || time.Duration(ex[0].Total) >= bookkeeping {
		t.Fatalf("a %v callback was billed to the request: ack %v of %v", bookkeeping, ack, time.Duration(ex[0].Total))
	}
	if timed.Load() != 1 {
		t.Fatalf("the callback ran before the record reached the plane (%d timed)", timed.Load())
	}
}

// exemplars reads the latency plane's tail exemplars off its /latency view.
func exemplars(t *testing.T, lp *latency.Plane) []latency.Exemplar {
	t.Helper()
	rw := httptest.NewRecorder()
	lp.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/latency", nil))
	var v struct {
		Exemplars []latency.Exemplar `json:"exemplars"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v.Exemplars
}
