package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
	"milan/internal/obs/slo"
	"milan/internal/obs/telemetry"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// trajectory is the committed benchmark ledger -latency-envelope reads.
const trajectory = "../../BENCH_trajectory.jsonl"

// node is one junctiond admission service with its debug endpoint, built
// the way run builds it with -wal-dir, -debug-addr and -latency-envelope.
type node struct {
	name         string
	admit, debug string
	observer     *obs.Observer
	plane        *latency.Plane
	eng          *slo.Engine
}

func startNode(t *testing.T, name string, fs vfs.FS, dir string) *node {
	t.Helper()
	o := obs.New(obs.Config{Tracing: true})
	o.Tracer().SeedIDs(telemetry.NodeIDBase(name))
	addr, dbg, err := obs.Serve(o.Handler(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbg.Close() })
	srv, plane, eng, err := serveAdmission(o, trajectory, admitConfig{fs: fs, dir: dir, addr: "127.0.0.1:0",
		sync: "always", snapshotEvery: 1024, procs: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := closeAdmission(srv, plane); err != nil {
			t.Error(err)
		}
	})
	return &node{name: name, admit: srv.Addr().String(), debug: addr.String(), observer: o, plane: eng.Latency(), eng: eng}
}

// drive negotiates jobs against n under client-minted traces, the way
// milanmon -drive does: a root arrival span opened before the call, so a
// stitched tree spans the client and the node.
func drive(t *testing.T, tracer *obs.Tracer, n *node, jobs []core.Job) {
	t.Helper()
	cli, err := qosnet.Dial(n.admit)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, job := range jobs {
		root := tracer.Start(tracer.NewTrace(), 0, "client.submit", obs.StageArrival, job.ID)
		job.Trace, job.Span = uint64(root.Trace()), uint64(root.ID())
		if _, err := cli.Negotiate(job); err != nil {
			t.Fatalf("%s: job %d: %v", n.name, job.ID, err)
		}
		root.End()
	}
}

// fig4Jobs returns n Figure-4 tunable jobs released far enough apart that
// 64 processors grant every one of them.
func fig4Jobs(first, n int) []core.Job {
	jobs := make([]core.Job, n)
	for i := range jobs {
		jobs[i] = workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(first+i, float64(i)*100, workload.Tunable)
	}
	return jobs
}

// wideJob is a tunable job of `chains` two-task chains.  The planner tries
// every chain, so the job's plan phase is long without anything added to
// the admission path.
func wideJob(id, chains int, release float64) core.Job {
	job := core.Job{ID: id, Release: release}
	for c := 0; c < chains; c++ {
		p := 1 + c%32
		job.Chains = append(job.Chains, core.Chain{Name: fmt.Sprintf("c%d", c), Quality: 1, Tasks: []core.Task{
			{Name: "a", Procs: p, Duration: 4, Deadline: release + 1000},
			{Name: "b", Procs: 33 - p, Duration: 4, Deadline: release + 1000},
		}})
	}
	return job
}

// backlog journals a fragmented schedule to the write-ahead log in dir: two
// thousand narrow one-task jobs over the first 1400 time units.  A node
// that recovers it plans every chain of a wide job through hundreds of
// holes, and none of the backlog's negotiations reaches the node's
// latency plane.
func backlog(t *testing.T, fs vfs.FS, dir string) {
	t.Helper()
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	p, _, err := durable.OpenPlane(durable.Config{FS: fs, Dir: dir, Procs: 64,
		Store: durable.StoreOptions{SnapshotEvery: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		end, procs, d := 1400*rng.Float64(), 1+rng.Intn(40), 0.5+3*rng.Float64()
		task := core.Task{Name: "t", Procs: procs, Duration: d, Deadline: end + d}
		job := core.Job{ID: 1000 + i, Chains: []core.Chain{{Name: "x", Quality: 1, Tasks: []core.Task{task}}}}
		if _, err := p.Negotiate(job); err != nil && !errors.Is(err, qos.ErrRejected) {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// get decodes the JSON h serves at path.
func get(t *testing.T, h http.Handler, path string, v any) {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rw.Code, rw.Body)
	}
	if err := json.Unmarshal(rw.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestRegressionRehearsal rehearses the latency-regression sentinel end to
// end on two armed nodes, scraped the way milanmon scrapes them.  Node 1
// recovers a fragmented backlog and admits jobs of
// two thousand tunable chains each, whose plan phase is really that slow:
// tens of ms, past any host hiccup (a scheduler tick is 4 ms) in a phase
// that does not grow with the profile — the admit record carries the chosen
// chain only.  Node 2 admits Figure-4 jobs.  The merged view must raise
// latency-regression:plan, every wide job's exemplar must blame plan, the
// slowest one's trace must stitch from the client to the node, and node 1
// must serve the flight snapshot the trip cut.
func TestRegressionRehearsal(t *testing.T) {
	const wide, chains, small = 4, 2000, 12
	// The journals are in memory: a flush takes no time, so the plan phase
	// is each wide job's slowest.
	mem, dir := vfs.NewMem(), t.TempDir()
	backlog(t, mem, dir)
	n1, n2 := startNode(t, "n1", mem, dir), startNode(t, "n2", vfs.NewMem(), t.TempDir())

	tracer := obs.NewTracer(8 * (wide + small))
	tracer.SeedIDs(telemetry.NodeIDBase("client"))
	var slow []core.Job
	for i := 0; i < wide; i++ {
		slow = append(slow, wideJob(1+i, chains, float64(i)*100))
	}
	drive(t, tracer, n1, slow)
	drive(t, tracer, n2, fig4Jobs(100, small))
	for _, n := range []*node{n1, n2} {
		n.eng.Tick(1) // the sentinel's clock, in engine seconds
	}

	agg := telemetry.NewAggregator(telemetry.AggregatorConfig{Nodes: []string{n1.debug, n2.debug}, Interval: 10 * time.Millisecond})
	agg.InjectSpans("client", tracer.Spans())
	agg.Start()
	defer agg.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		up := 0
		for _, st := range agg.Nodes() {
			if st.Up {
				up++
			}
		}
		if up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never all up: %+v", agg.Nodes())
		}
	}

	// The slowdown is real: every wide job's plan phase is over the armed
	// budget, and by at least ten times.
	env, err := latency.EnvelopeFromTrajectory(trajectory, envelopeMatch, envelopeSlack)
	if err != nil {
		t.Fatal(err)
	}
	budget := env.Phase[phase.Plan]
	for _, c := range n1.plane.RegressionCounts() {
		if c.Name == "plan" && (c.Total != wide || c.Over != wide) {
			t.Fatalf("node 1 plan counts %+v, want all %d wide jobs over budget", c, wide)
		}
	}
	// The cluster /latency view, as milanmon -listen serves it.
	var view struct {
		Exemplars []latency.Exemplar       `json:"exemplars"`
		Traces    map[string]*obs.SpanNode `json:"traces"`
	}
	get(t, agg.Handler(), "/latency?k=8", &view)
	measured := 0
	for _, e := range view.Exemplars {
		if e.Job > wide {
			continue
		}
		measured++
		t.Logf("wide job %d: plan %v of %v, budget %v", e.Job, time.Duration(e.Durs[phase.Plan]), time.Duration(e.Total), time.Duration(budget))
		if e.Durs[phase.Plan] < 10*budget {
			t.Fatalf("wide job %d planned in %v, want at least 10x the %v budget", e.Job,
				time.Duration(e.Durs[phase.Plan]), time.Duration(budget))
		}
	}
	if measured != wide {
		t.Fatalf("%d of %d wide jobs among the exemplars: %+v", measured, wide, view.Exemplars)
	}

	alerting := false
	for _, b := range agg.MergedSLO().Burns() {
		alerting = alerting || b.Objective == "latency-regression:plan" && b.Alerting
	}
	if !alerting {
		t.Fatalf("merged SLO view has no alerting latency-regression:plan: %+v", agg.MergedSLO().Burns())
	}

	// The exemplars come slowest first.  A Figure-4 job of node 2 whose
	// route or plan phase took a host hiccup may outrank the wide jobs;
	// the operator's question is which phase the slow wide jobs blame.
	var slowest *latency.Exemplar
	for i, e := range view.Exemplars {
		if e.Job > wide {
			continue
		}
		if slowest == nil {
			slowest = &view.Exemplars[i]
		}
		worst := phase.Route
		for p, d := range e.Durs {
			if d > e.Durs[worst] {
				worst = phase.Phase(p)
			}
		}
		if worst != phase.Plan {
			t.Fatalf("wide job %d's exemplar blames %s, want plan: %+v", e.Job, phase.Names()[worst], e)
		}
	}
	tree := view.Traces[fmt.Sprint(slowest.Trace)]
	if slowest.Trace == 0 || tree == nil {
		t.Fatalf("no stitched span tree for the slowest exemplar's trace %d", slowest.Trace)
	}
	if tree.Name != "client.submit" || tree.FindStage(obs.StagePlan) == nil {
		t.Fatalf("slow trace does not stitch the client's arrival to the node's plan: %+v", tree)
	}

	// Node 2's shard plans under its lock, and times it over the socket.
	if h := agg.NodeSnapshots()[n2.debug].Histograms["latency_phase_plan_ns"]; h.Count != small {
		t.Fatalf("node 2 plan histogram = %+v, want %d admissions", h, small)
	}

	resp, err := http.Get("http://" + n1.debug + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node 1 /flight: %s: the trip cut no snapshot", resp.Status)
	}
	snap, err := slo.DecodeSnapshot(resp.Body)
	if err != nil {
		t.Fatalf("node 1 /flight: %v", err)
	}
	if snap.Kind != "latency-regression" {
		t.Fatalf("node 1 flight snapshot kind %q (%s), want latency-regression", snap.Kind, snap.Note)
	}
}

// TestEnvelopeJudgesOnlyWhatItsRowMeasured: the committed envelope row is
// an in-process admission with no disk in it, so a healthy node that
// flushes every grant must not be judged on its journal or end-to-end
// time: the sentinel keeps no objective for either.
func TestEnvelopeJudgesOnlyWhatItsRowMeasured(t *testing.T) {
	n := startNode(t, "n1", nil, t.TempDir()) // a real disk: every grant waits for its flush
	cli, err := qosnet.Dial(n.admit)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, job := range fig4Jobs(1, 200) {
		if _, err := cli.Negotiate(job); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	n.eng.Tick(1)
	var doc struct {
		State slo.EngineState `json:"state"`
	}
	get(t, n.observer.Handler(), "/slo", &doc)
	if len(doc.State.Objectives) == 0 {
		t.Fatal("/slo exports no objectives")
	}
	for _, o := range doc.State.Objectives {
		if o.Name == "latency-regression:journal" || o.Name == "latency-regression:e2e" {
			t.Errorf("the sentinel judges %s, which the envelope's row never measured: %+v", o.Name, o)
		}
	}
}
