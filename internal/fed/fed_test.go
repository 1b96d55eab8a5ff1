package fed

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"milan/internal/allocs"
	"milan/internal/core"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/resbroker"
	"milan/internal/workload"
)

// collect returns an observer appending every decision to *out, for planes
// driven from one goroutine.
func collect(out *[]qos.Decision) func(qos.Decision) {
	return func(d qos.Decision) { *out = append(*out, d) }
}

// fig4Stream materializes n tunable Figure-4 jobs with Poisson gaps — the
// paper's workload, shared with the experiments package.
func fig4Stream(n int, meanGap float64, seed int64) []core.Job {
	p := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	return p.Stream(workload.NewPoisson(meanGap, seed), n, workload.Tunable)
}

// smallStream scales the Figure-4 shape down to x = 4 so single tasks fit
// inside small shards (a task never spans shards).
func smallStream(n int, meanGap float64, seed int64) []core.Job {
	p := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	return p.Stream(workload.NewPoisson(meanGap, seed), n, workload.Tunable)
}

// TestSingleShardMatchesMonolith is the plane's differential anchor: with
// one shard and probe fan-out one, the federated arbitrator performs
// exactly the monolithic qos.Arbitrator's scheduler calls in exactly its
// order, so on a Figure-4 replay the decision streams, statistics and
// utilization figures must be bitwise identical (the plane also announces
// its clock, which the monolith does not: one KindClock per advance).
func TestSingleShardMatchesMonolith(t *testing.T) {
	const procs = 32
	jobs := fig4Stream(400, 6, 41)

	var hm, hf []qos.Decision
	clocks := 0
	mono, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: procs, Observer: collect(&hm)})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := New(Config{Procs: procs, Shards: 1, ProbeK: 1, Observer: func(d qos.Decision) {
		if d.Kind == qos.KindClock {
			clocks++
			return
		}
		hf = append(hf, d)
	}})
	if err != nil {
		t.Fatal(err)
	}

	for _, job := range jobs {
		mono.Observe(job.Release)
		plane.Observe(job.Release)
		gm, em := mono.Negotiate(job)
		gf, ef := plane.Negotiate(job)
		if (em == nil) != (ef == nil) {
			t.Fatalf("job %d: monolith err=%v, fed err=%v", job.ID, em, ef)
		}
		if em != nil {
			if !errors.Is(em, qos.ErrRejected) || !errors.Is(ef, qos.ErrRejected) {
				t.Fatalf("job %d: unexpected errors %v / %v", job.ID, em, ef)
			}
			continue
		}
		if !reflect.DeepEqual(gm, gf) {
			t.Fatalf("job %d: grants differ\nmonolith: %+v\nfed:      %+v", job.ID, gm, gf)
		}
	}

	if len(hm) != len(hf) {
		t.Fatalf("history lengths differ: monolith %d, fed %d", len(hm), len(hf))
	}
	if clocks != len(jobs) { // Poisson gaps are positive: every release advances the clock
		t.Fatalf("%d clock decisions for %d advancing observations", clocks, len(jobs))
	}
	for i := range hm {
		if !reflect.DeepEqual(hm[i], hf[i]) {
			t.Fatalf("decision %d differs\nmonolith: %+v\nfed:      %+v", i, hm[i], hf[i])
		}
	}
	if sm, sf := mono.Stats(), plane.Stats(); !reflect.DeepEqual(sm, sf) {
		t.Fatalf("stats differ\nmonolith: %+v\nfed:      %+v", sm, sf)
	}
	if sm := mono.Stats(); sm.Admitted == 0 || sm.Rejected == 0 {
		t.Fatalf("degenerate replay (admitted=%d rejected=%d): tune the stream", sm.Admitted, sm.Rejected)
	}
	last := jobs[len(jobs)-1].Release
	if um, uf := mono.Utilization(0, last+100), plane.Utilization(0, last+100); um != uf {
		t.Fatalf("utilization differs: monolith %v, fed %v", um, uf)
	}
	if bm, bf := mono.BusyUpTo(last), plane.busyUpTo(last); bm != bf {
		t.Fatalf("busy differs: monolith %v, fed %v", bm, bf)
	}
	if im, ifed := mono.IndexStats(), plane.IndexStats(); !reflect.DeepEqual(im, ifed) {
		t.Fatalf("index stats differ\nmonolith: %+v\nfed:      %+v", im, ifed)
	}
	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOneShardAllocatesWhatTheMonolithDoes holds a one-shard plane to the
// monolith's price, and the monolith to the plane's, counted over a whole
// run (allocs.Count): the two allocate the same objects in all, because the
// monolith is the one-shard case.  A granted Figure-4 job costs each a 32nd
// of an allocation — its qos.GrantBox, cut from a slab of 32 (no placement
// beside it, no copy of its tasks, no candidate, load or probe slices —
// there is nothing to route — and no copy of the job) — plus what the
// scheduler's profile costs the runtime to grow; a refused one costs each
// nothing.  The slabs are pinned exactly, the growth (which the Go release
// decides) only bounded.
func TestOneShardAllocatesWhatTheMonolithDoes(t *testing.T) {
	const procs, runs = 32, 300
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	granted := make([]core.Job, runs+1) // allocs.Count warms up with one extra call
	for i := range granted {
		// At most three of these overlap, 12 of 32 processors: all granted.
		granted[i] = fig.Job(i, float64(i)*50, workload.Tunable)
	}
	refused := workload.FigureJob{X: 2 * procs, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(-1, 0, workload.Tunable)
	type arbitrator interface {
		Observe(float64)
		Negotiate(core.Job) (*qos.Grant, error)
	}
	// count negotiates the stream on a fresh arbitrator: the objects it
	// allocates, and the slabs of boxes among them.
	count := func(a arbitrator, wantGrant bool) (total, slabs uint64) {
		i := 0
		total, at := allocs.Count(runs, func() {
			job := refused
			if wantGrant {
				job = granted[i]
				i++
				a.Observe(job.Release)
			}
			if _, err := a.Negotiate(job); wantGrant != (err == nil) {
				t.Fatalf("job %d: %v (want a grant: %v)", job.ID, err, wantGrant)
			}
		}, "milan/internal/qos.(*GrantBoxes).Next")
		return total, at[0]
	}
	for _, tc := range []struct {
		name      string
		wantGrant bool
		slabs     uint64 // exactly
		growth    uint64 // at most, besides the slabs
	}{
		// The warm-up's grant starts the first slab and every 32nd grant
		// after it another.  The scheduler re-slots and re-indexes its
		// profile a few times along the stream (four times on go1.24).
		{"granted", true, runs / 32, runs / 8},
		{"refused", false, 0, 0},
	} {
		mono, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		plane, err := New(Config{Procs: procs, Shards: 1, ProbeK: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, mSlabs := count(mono, tc.wantGrant)
		f, fSlabs := count(plane, tc.wantGrant)
		if m != f || mSlabs != tc.slabs || fSlabs != tc.slabs || m-mSlabs > tc.growth {
			t.Errorf("%s, %d negotiations: monolith %d objects (%d slabs), one-shard plane %d (%d slabs); want equal totals, %d slabs and at most %d objects more",
				tc.name, runs, m, mSlabs, f, fSlabs, tc.slabs, tc.growth)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0}); err == nil {
		t.Fatal("accepted 0 procs")
	}
	if _, err := New(Config{Procs: 4, Shards: 8}); err == nil {
		t.Fatal("accepted more shards than procs")
	}
	a, err := New(Config{Procs: 10, Shards: 4, ProbeK: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.probeK != 4 {
		t.Fatalf("probe k = %d, want clamped to 4", a.probeK)
	}
	var parts []int
	for _, sh := range a.shards {
		parts = append(parts, sh.Procs())
	}
	if !reflect.DeepEqual(parts, []int{3, 3, 2, 2}) {
		t.Fatalf("partition = %v, want [3 3 2 2]", parts)
	}
	if a.Procs() != 10 {
		t.Fatalf("total procs = %d", a.Procs())
	}
}

// TestConcurrentNegotiateAcrossShards hammers an 8-shard plane from many
// goroutines (run under -race in CI): every grant must respect its
// deadlines, per-shard profiles must stay within capacity, and the
// plane-wide admitted count must match the grants handed out.
func TestConcurrentNegotiateAcrossShards(t *testing.T) {
	const shards = 8
	const workers = 16
	const perWorker = 30

	plane, err := New(Config{Procs: 8 * shards, Shards: shards, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}

	var granted sync.Map
	var admitted, rejected int64
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			jobs := smallStream(perWorker, 10, int64(100+w))
			for _, job := range jobs {
				job.ID = w*perWorker + job.ID
				g, err := plane.Negotiate(job)
				mu.Lock()
				if err != nil {
					rejected++
				} else {
					admitted++
					granted.Store(job.ID, g)
				}
				mu.Unlock()
				if err == nil {
					// Every task of the granted chain meets its deadline.
					chain := job.Chains[g.Chain]
					for i, tp := range g.Placement.Tasks {
						if tp.Finish > chain.Tasks[i].Deadline+core.Eps {
							t.Errorf("job %d task %d finishes %v after deadline %v",
								job.ID, i, tp.Finish, chain.Tasks[i].Deadline)
						}
					}
				} else if !errors.Is(err, qos.ErrRejected) {
					t.Errorf("job %d: unexpected error %v", job.ID, err)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	if int64(st.Admitted) != admitted {
		t.Fatalf("stats admitted %d, grants returned %d", st.Admitted, admitted)
	}
	if admitted+rejected != workers*perWorker {
		t.Fatalf("decisions %d, jobs %d", admitted+rejected, workers*perWorker)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
}

// loadShardDirect commits a job straight into one shard's scheduler,
// holding processors a shrink may not take — white-box setup for the
// capacity tests.
func loadShardDirect(t *testing.T, sh *shard, procs int, dur, deadline float64) {
	t.Helper()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	job := core.Job{ID: 9000 + sh.id, Chains: []core.Chain{{
		Quality: 1,
		Tasks:   []core.Task{{Procs: procs, Duration: dur, Deadline: deadline, Quality: 1}},
	}}}
	if _, err := sh.sched.Admit(job); err != nil {
		t.Fatalf("direct load of shard %d: %v", sh.id, err)
	}
	sh.version++
	sh.refreshLoadLocked()
}

// TestSetTotalCapacityGrowAndShrink steps a one-shard plane's capacity up
// and down: each processor is one KindResize, in step order, and a shrink
// that would preempt a reservation stops where the reservation starts
// needing processors, returning the total reached and the shortfall.
func TestSetTotalCapacityGrowAndShrink(t *testing.T) {
	var resizes []int
	plane, err := New(Config{Procs: 8, Observer: func(d qos.Decision) {
		if d.Kind == qos.KindResize {
			resizes = append(resizes, d.Procs)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := plane.SetTotalCapacity(12); err != nil || got != 12 {
		t.Fatalf("grow: got %d err %v", got, err)
	}
	if got, err := plane.SetTotalCapacity(8); err != nil || got != 8 {
		t.Fatalf("shrink: got %d err %v", got, err)
	}
	if want := []int{9, 10, 11, 12, 11, 10, 9, 8}; !reflect.DeepEqual(resizes, want) {
		t.Fatalf("resize decisions %v, want %v", resizes, want)
	}

	// A reservation of six processors: the shrink to four stops at six.
	resizes = nil
	loadShardDirect(t, plane.shards[0], 6, 100, 1000)
	got, err := plane.SetTotalCapacity(4)
	const want = "fed: cannot shrink below 6 procs without preempting reservations (target 4)"
	if err == nil || err.Error() != want {
		t.Fatalf("shrink below the reservation: err %v, want %q", err, want)
	}
	if got != 6 || plane.Procs() != 6 || !reflect.DeepEqual(resizes, []int{7, 6}) {
		t.Fatalf("refused shrink reached %d (plane %d, resizes %v), want 6 after [7 6]", got, plane.Procs(), resizes)
	}
	if got, err := plane.SetTotalCapacity(0); err == nil || got != 6 || plane.Procs() != 6 {
		t.Fatalf("total 0: got %d err %v, plane %d", got, err, plane.Procs())
	}
	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancerNeverPreempts: with every processor committed there is no
// headroom to give back, so a shrink of even one processor moves nothing —
// no KindResize, the same capacity — and reports the shortfall.
func TestRebalancerNeverPreempts(t *testing.T) {
	resizes := 0
	plane, err := New(Config{Procs: 8, Observer: func(d qos.Decision) {
		if d.Kind == qos.KindResize {
			resizes++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	loadShardDirect(t, plane.shards[0], 8, 100, 1000)
	got, err := plane.SetTotalCapacity(7)
	const want = "fed: cannot shrink below 8 procs without preempting reservations (target 7)"
	if err == nil || err.Error() != want {
		t.Fatalf("shrink of a fully committed plane: err %v, want %q", err, want)
	}
	if got != 8 || plane.Procs() != 8 || resizes != 0 {
		t.Fatalf("fully committed plane moved: reached %d (plane %d, %d resizes), want 8 and none", got, plane.Procs(), resizes)
	}
	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityChangesRefuseShards: a plane of two shards has no one
// scheduler to resize, so both capacity calls refuse and nothing moves.
func TestCapacityChangesRefuseShards(t *testing.T) {
	plane, err := New(Config{Procs: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := plane.SetTotalCapacity(12); err == nil || got != 8 || plane.Procs() != 8 {
		t.Fatalf("two shards: SetTotalCapacity got %d err %v, plane %d", got, err, plane.Procs())
	}
	if stop, err := plane.AttachBroker(resbroker.New(nil), 0); err == nil || stop != nil {
		t.Fatalf("two shards: AttachBroker err %v", err)
	}
}

func TestAttachBrokerFollowsPool(t *testing.T) {
	plane, err := New(Config{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	broker := resbroker.New(nil)
	stop, err := plane.AttachBroker(broker, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if err := broker.Register(resbroker.Resource{ID: "m0", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if plane.Procs() != 8 {
		t.Fatalf("procs = %d after matching registration", plane.Procs())
	}
	if err := broker.Register(resbroker.Resource{ID: "m1", Procs: 4, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if plane.Procs() != 12 {
		t.Fatalf("procs = %d after adding m1, want 12", plane.Procs())
	}
	if err := broker.Deregister("m1"); err != nil {
		t.Fatal(err)
	}
	if plane.Procs() != 8 {
		t.Fatalf("procs = %d after removing m1, want 8", plane.Procs())
	}
	// Bindings of computations do not resize the plane.
	if _, err := broker.Bind(resbroker.Request{Computation: "c", MinProcs: 2}); err != nil {
		t.Fatal(err)
	}
	if plane.Procs() != 8 {
		t.Fatalf("procs = %d after unrelated bind", plane.Procs())
	}
	stop()
	if err := broker.Register(resbroker.Resource{ID: "m2", Procs: 16, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if plane.Procs() != 8 {
		t.Fatalf("stopped subscription still resized the plane to %d", plane.Procs())
	}
}

func TestNegotiateDAGFederated(t *testing.T) {
	plane, err := New(Config{Procs: 8, Shards: 2, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := core.DAGJob{ID: 1, Alts: []core.DAG{{
		Name:    "diamond",
		Quality: 0.9,
		Tasks: []core.DAGTask{
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: 100}},
			{Task: core.Task{Procs: 2, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: core.Task{Procs: 2, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: 100}, Preds: []int{1, 2}},
		},
	}}}
	g, err := plane.NegotiateDAG(job)
	if err != nil {
		t.Fatal(err)
	}
	if g.Quality != 0.9 {
		t.Fatalf("quality = %v", g.Quality)
	}
	// An infeasible DAG is rejected with the qos sentinel.
	bad := core.DAGJob{ID: 2, Alts: []core.DAG{{
		Name:  "too-wide",
		Tasks: []core.DAGTask{{Task: core.Task{Procs: 64, Duration: 5, Deadline: 100}}},
	}}}
	if _, err := plane.NegotiateDAG(bad); !errors.Is(err, qos.ErrRejected) {
		t.Fatalf("err = %v, want qos.ErrRejected", err)
	}
}

// busyUpTo returns total reserved processor-time up to t across the plane.
func (a *Arbitrator) busyUpTo(t float64) float64 {
	var busy float64
	for _, sh := range a.shards {
		busy += sh.busyUpTo(t)
	}
	return busy
}

// At two shards and up the router plans in its probes: a timed negotiation
// puts its planning in the probe phase and none in plan, granted or
// refused.  The durable plane is one shard, so this half of the waterfall is
// fed's alone; TestOneShardPlaneIsTracedAndTimed (durable) holds the
// one-shard half over a socket.
func TestRouterTimesItsPlanningAsProbe(t *testing.T) {
	plane, err := New(Config{Procs: 16, Shards: 4, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	grantable := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(0, 0, workload.Tunable)
	// Wider than a shard, narrower than the machine: every probe refuses it.
	tooWide := workload.FigureJob{X: 8, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(1, 0, workload.Tunable)
	for _, tc := range []struct {
		job      core.Job
		rejected bool
	}{{grantable, false}, {tooWide, true}} {
		rec := phase.Start(nil, 0, int64(tc.job.ID))
		_, err := plane.NegotiateTimed(tc.job, &rec)
		rec.End()
		if errors.Is(err, qos.ErrRejected) != tc.rejected || (err != nil && !tc.rejected) {
			t.Fatalf("job %d: %v (want rejected = %v)", tc.job.ID, err, tc.rejected)
		}
		if d := rec.Durs(); d[phase.Probe] <= 0 || d[phase.Plan] != 0 {
			t.Fatalf("job %d: waterfall %v, want planning in probe and none in plan", tc.job.ID, d)
		}
	}
}
