package obs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

func TestNilTracerAndSpanSafe(t *testing.T) {
	var tr *Tracer
	if tr.NewTrace() != 0 {
		t.Fatal("nil tracer minted a trace")
	}
	sp := tr.Start(1, 0, "x", StageRun, 1)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All span methods no-op on nil.
	sp.SetAttr("k", 1)
	sp.SetErr("e")
	sp.End()
	sp.EndAt(5)
	sp.EndAdmission(nil, nil, nil)
	if sp.ID() != 0 || sp.Trace() != 0 {
		t.Fatal("nil span has identity")
	}
	tr.SetClock(nil)
	if tr.Spans() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
}

func TestTracerZeroTraceIsUntraced(t *testing.T) {
	tr := NewTracer(8)
	if sp := tr.Start(0, 0, "x", StageRun, 1); sp != nil {
		t.Fatal("zero trace produced a span")
	}
	if tr.Total() != 0 {
		t.Fatal("untraced path recorded a span")
	}
}

func TestSpanLifecycleAndDoubleEnd(t *testing.T) {
	tr := NewTracer(8)
	tr.SetClock(func() float64 { return 42 })
	trace := tr.NewTrace()
	sp := tr.StartAt(trace, 0, "root", StageArrival, 7, 10)
	sp.SetAttr("k", 3)
	sp.SetErr("oops")
	sp.EndAt(11)
	sp.End() // second end must not record again
	sp.EndAt(99)
	spans := tr.Spans()
	if len(spans) != 1 || tr.Total() != 1 {
		t.Fatalf("spans = %d total = %d, want 1", len(spans), tr.Total())
	}
	rec := spans[0]
	if rec.Trace != trace || rec.Name != "root" || rec.Stage != StageArrival ||
		rec.Job != 7 || rec.Start != 10 || rec.End != 11 || rec.Err != "oops" ||
		rec.Attrs["k"] != 3 {
		t.Fatalf("rec = %+v", rec)
	}
}

// TestEndAdmissionUnderABoundClock: in simulation time an admission takes
// none, so the arrival span keeps the start it was opened with and it and
// its children — still one per phase the record timed — end at the clock's
// reading; the grant's and the error's details land on the arrival span, and
// ending it again records nothing.
func TestEndAdmissionUnderABoundClock(t *testing.T) {
	tr := NewTracer(16)
	tr.SetClock(func() float64 { return 42 })
	rec := phase.Start(nil, 0, 7)
	time.Sleep(time.Microsecond)
	rec.Mark(phase.Route)
	time.Sleep(time.Microsecond)
	rec.Mark(phase.Probe)
	rec.End()
	timed := 0
	for _, d := range rec.Durs() {
		if d > 0 {
			timed++
		}
	}
	g := &qos.Grant{Chain: 1, Shard: 3, Placement: core.Placement{Tasks: []core.TaskPlacement{{Start: 50, Finish: 60}}}}
	sp := tr.StartAt(tr.NewTrace(), 0, "job.admit", StageArrival, 7, 40)
	sp.EndAdmission(&rec, g, nil)
	sp.EndAdmission(&rec, nil, errors.New("late"))
	sp.End()

	spans := tr.Spans()
	root := spans[len(spans)-1]
	if len(spans) != timed+1 {
		t.Fatalf("%d spans for %d timed phases", len(spans), timed)
	}
	if root.Name != "job.admit" || root.Start != 40 || root.End != 42 || root.Err != "" ||
		root.Attrs["shard"] != 3 || root.Attrs["chain"] != 1 || root.Attrs["finish"] != 60 {
		t.Fatalf("arrival span = %+v", root)
	}
	if spans[0].Name != "admit.route" || spans[0].Stage != StageRoute || spans[1].Name != "admit.probe" || spans[1].Stage != StagePlan {
		t.Fatalf("children = %+v", spans[:timed])
	}
	for _, c := range spans[:timed] {
		if c.Parent != root.ID || c.Trace != root.Trace || c.Job != 7 || c.Start != 42 || c.End != 42 {
			t.Fatalf("child %+v under %+v", c, root)
		}
	}
}

func TestTracerRingDropsOldestCounted(t *testing.T) {
	tr := NewTracer(3)
	trace := tr.NewTrace()
	for i := 0; i < 8; i++ {
		sp := tr.StartAt(trace, 0, "s", StageRun, i, float64(i))
		sp.EndAt(float64(i) + 1)
	}
	spans := tr.Spans()
	if len(spans) != 3 || tr.Total() != 8 || tr.Dropped() != 5 {
		t.Fatalf("len=%d total=%d dropped=%d", len(spans), tr.Total(), tr.Dropped())
	}
	for i, want := range []int{5, 6, 7} {
		if spans[i].Job != want {
			t.Fatalf("spans[%d].Job = %d, want %d", i, spans[i].Job, want)
		}
	}
}

func TestBuildSpanTrees(t *testing.T) {
	recs := []SpanRec{
		{Trace: 1, ID: 1, Name: "root", Stage: StageArrival, Start: 0, End: 5},
		{Trace: 1, ID: 3, Parent: 1, Name: "late", Stage: StageReserve, Start: 2, End: 3},
		{Trace: 1, ID: 2, Parent: 1, Name: "early", Stage: StagePlan, Start: 1, End: 2},
		{Trace: 1, ID: 4, Parent: 2, Name: "leaf", Stage: StageRun, Start: 1.5, End: 4},
		{Trace: 2, ID: 5, Name: "other", Stage: StageArrival, Start: 0, End: 1},
		{Trace: 0, ID: 6, Name: "untraced", Start: 0, End: 1}, // skipped
	}
	trees := BuildSpanTrees(recs)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	root := trees[1]
	if root.Name != "root" || len(root.Children) != 2 {
		t.Fatalf("root = %+v", root)
	}
	// Children ordered by start.
	if root.Children[0].Name != "early" || root.Children[1].Name != "late" {
		t.Fatalf("child order: %s, %s", root.Children[0].Name, root.Children[1].Name)
	}
	if got := root.FindStage(StageRun); got == nil || got.Name != "leaf" {
		t.Fatalf("FindStage(run) = %+v", got)
	}
	if root.FindStage("nope") != nil {
		t.Fatal("FindStage found a missing stage")
	}
	var walked int
	root.Walk(func(*SpanNode) { walked++ })
	if walked != 4 {
		t.Fatalf("walked %d nodes, want 4", walked)
	}
}

func TestBuildSpanTreesSyntheticRootForOrphans(t *testing.T) {
	// Parent span evicted from the ring: two siblings survive and get
	// wrapped under a synthetic root spanning their extent.
	recs := []SpanRec{
		{Trace: 9, ID: 2, Parent: 1, Name: "a", Stage: StagePlan, Start: 1, End: 2},
		{Trace: 9, ID: 3, Parent: 1, Name: "b", Stage: StageRun, Start: 2, End: 7},
	}
	trees := BuildSpanTrees(recs)
	root := trees[9]
	if root == nil || root.Name != "trace" || len(root.Children) != 2 {
		t.Fatalf("synthetic root = %+v", root)
	}
	if root.Start != 1 || root.End != 7 {
		t.Fatalf("synthetic extent = [%v, %v], want [1, 7]", root.Start, root.End)
	}
}

// TestTracerConcurrent exercises concurrent span creation, attribute
// writes and ring reads — run under -race in CI.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				trace := tr.NewTrace()
				sp := tr.StartAt(trace, 0, "s", StageRun, g*1000+i, float64(i))
				sp.SetAttr("g", float64(g))
				child := tr.StartAt(trace, sp.ID(), "c", StagePlan, g*1000+i, float64(i))
				child.EndAt(float64(i) + 1)
				sp.EndAt(float64(i) + 2)
				_ = tr.Spans()
				_ = tr.Dropped()
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 8*200*2 {
		t.Fatalf("total = %d, want %d", tr.Total(), 8*200*2)
	}
	if got := int64(len(tr.Spans())) + tr.Dropped(); got != tr.Total() {
		t.Fatalf("ring accounting: spans+dropped=%d total=%d", got, tr.Total())
	}
}

// TestRegistrySnapshotMergeWhileWritersHot snapshots and merges registries
// concurrently with hot writers — run under -race in CI.
func TestRegistrySnapshotMergeWhileWritersHot(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range []*Registry{a, b} {
		wg.Add(1)
		go func(r *Registry) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("jobs").Inc()
				r.Gauge("load").Set(float64(i))
				r.Histogram("lat").Observe(time.Duration(i%7) * time.Microsecond)
			}
		}(r)
	}
	for i := 0; i < 50; i++ {
		s := a.Snapshot()
		s.Merge(b.Snapshot())
		if s.Counters["jobs"] < 0 {
			t.Fatal("impossible counter")
		}
	}
	close(stop)
	wg.Wait()
	final := a.Snapshot()
	final.Merge(b.Snapshot())
	if final.Counters["jobs"] != a.Counter("jobs").Value()+b.Counter("jobs").Value() {
		t.Fatalf("merge lost counts: %d", final.Counters["jobs"])
	}
}
