package qos

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/workload"
)

func newArb(t *testing.T, procs int) *Arbitrator {
	t.Helper()
	arb, err := NewArbitrator(ArbitratorConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	return arb
}

func simpleJob(id int, release float64, procs int, dur, deadline float64) core.Job {
	return core.Job{ID: id, Release: release, Chains: []core.Chain{
		{Name: "only", Quality: 1, Tasks: []core.Task{
			{Name: "t", Procs: procs, Duration: dur, Deadline: deadline},
		}},
	}}
}

func TestNewArbitratorRejectsBadConfig(t *testing.T) {
	if _, err := NewArbitrator(ArbitratorConfig{Procs: 0}); err == nil {
		t.Fatal("0-processor arbitrator created")
	}
}

func TestNegotiateGrantAndReject(t *testing.T) {
	var hist []Decision
	arb, err := NewArbitrator(ArbitratorConfig{Procs: 4, Observer: func(d Decision) { hist = append(hist, d) }})
	if err != nil {
		t.Fatal(err)
	}
	g, err := arb.Negotiate(simpleJob(1, 0, 4, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if g.JobID != 1 || g.Chain != 0 || g.Quality != 1 {
		t.Fatalf("grant = %+v", g)
	}
	if got := g.Finish(); got != 10 {
		t.Fatalf("Finish = %v, want 10", got)
	}
	// Machine is busy [0,10); an urgent full-width job must be rejected.
	_, err = arb.Negotiate(simpleJob(2, 0, 4, 5, 12))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	st := arb.Stats()
	if st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(hist) != 2 || hist[0].Kind != KindAdmitted || hist[1].Kind != KindRejected {
		t.Fatalf("history = %+v", hist)
	}
}

func TestNegotiatePicksBestPathOfTunableJob(t *testing.T) {
	arb := newArb(t, 8)
	p := workload.FigureJob{X: 8, T: 10, Alpha: 0.5, Laxity: 0.5}
	job := p.Job(1, 0, workload.Tunable)
	g, err := arb.Negotiate(job)
	if err != nil {
		t.Fatal(err)
	}
	// Empty machine: shape1 (8 procs x 10 then 4 x 20) finishes at 30;
	// shape2 (4 x 20 then 8 x 10) also finishes at 30.  Tie broken by
	// utilization (equal) then resource prefix: shape2's first task uses
	// 4x20=80 = shape1's 8x10=80 — full tie, so chain 0.
	if g.Chain != 0 {
		t.Fatalf("chain = %d, want 0 on full tie", g.Chain)
	}
}

func TestObserverCallback(t *testing.T) {
	var got []Decision
	arb, err := NewArbitrator(ArbitratorConfig{
		Procs:    4,
		Observer: func(d Decision) { got = append(got, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	arb.Negotiate(simpleJob(1, 0, 4, 10, 20))
	arb.Negotiate(simpleJob(2, 0, 4, 10, 15)) // rejected
	if len(got) != 2 {
		t.Fatalf("observer saw %d decisions, want 2", len(got))
	}
	if got[0].Kind != KindAdmitted || got[0].Grant == nil {
		t.Errorf("first decision = %+v", got[0])
	}
	if got[1].Kind != KindRejected || got[1].Grant != nil {
		t.Errorf("second decision = %+v", got[1])
	}
}

func TestObserveAdvancesAndCompacts(t *testing.T) {
	var clock []float64
	arb, err := NewArbitrator(ArbitratorConfig{Procs: 4, Observer: func(d Decision) { clock = append(clock, d.Now) }})
	if err != nil {
		t.Fatal(err)
	}
	arb.Negotiate(simpleJob(1, 0, 2, 10, 100))
	arb.Observe(50)
	arb.Negotiate(simpleJob(2, 50, 8, 1, 100)) // too wide: a rejection stamped with the clock
	arb.Observe(20)                            // going backwards is ignored
	arb.Negotiate(simpleJob(3, 50, 8, 1, 100))
	if want := []float64{0, 50, 50}; !reflect.DeepEqual(clock, want) {
		t.Fatalf("decision clocks = %v, want %v", clock, want)
	}
	// Utilization accounting survives compaction.
	if got := arb.Utilization(0, 10); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if got := arb.BusyUpTo(10); got != 20 {
		t.Fatalf("BusyUpTo = %v, want 20", got)
	}
}

func TestConcurrentNegotiationsAreSafeAndConsistent(t *testing.T) {
	arb := newArb(t, 16)
	var wg sync.WaitGroup
	const n = 200
	results := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = arb.Negotiate(simpleJob(i, 0, 4, 10, 1e6))
		}(i)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("job %d: %v (deadline 1e6 must always be admissible)", i, err)
		}
	}
	st := arb.Stats()
	if st.Admitted != n {
		t.Fatalf("admitted = %d, want %d", st.Admitted, n)
	}
}

func TestAgentNegotiationAndConfigure(t *testing.T) {
	arb := newArb(t, 8)
	job := core.Job{ID: 7, Chains: []core.Chain{
		{Name: "fine", Quality: 1.0, Tasks: []core.Task{{Name: "a", Procs: 8, Duration: 5, Deadline: 100}}},
		{Name: "coarse", Quality: 0.8, Tasks: []core.Task{{Name: "b", Procs: 2, Duration: 20, Deadline: 100}}},
	}}
	ag := NewAgent(job)
	var configured *Grant
	ag.Configure = func(g *Grant) { configured = g }

	if _, err := ag.ChosenChain(); err == nil {
		t.Fatal("ChosenChain before negotiation succeeded")
	}
	g, err := ag.NegotiateWith(arb)
	if err != nil {
		t.Fatal(err)
	}
	if configured != g {
		t.Fatal("Configure callback not invoked with the grant")
	}
	if ag.Grant() != g {
		t.Fatal("Grant() not retained")
	}
	chain, err := ag.ChosenChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain.Name != "fine" { // earliest finish: 8x5 beats 2x20
		t.Fatalf("chosen chain = %s, want fine", chain.Name)
	}
	if g.Quality != 1.0 {
		t.Fatalf("quality = %v, want 1.0", g.Quality)
	}
}

func TestAgentRejectsInvalidJob(t *testing.T) {
	arb := newArb(t, 4)
	ag := NewAgent(core.Job{ID: 1}) // no chains
	if _, err := ag.NegotiateWith(arb); err == nil {
		t.Fatal("invalid job negotiated")
	}
}

func TestAgentPropagatesRejection(t *testing.T) {
	arb := newArb(t, 2)
	ag := NewAgent(simpleJob(1, 0, 4, 1, 100)) // wants more procs than exist
	_, err := ag.NegotiateWith(arb)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if ag.Grant() != nil {
		t.Fatal("grant retained after rejection")
	}
}

func TestDAGAgentNegotiation(t *testing.T) {
	arb := newArb(t, 8)
	job := core.DAGJob{ID: 1, Alts: []core.DAG{{
		Name:    "diamond",
		Quality: 0.9,
		Tasks: []core.DAGTask{
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: 100}},
			{Task: core.Task{Procs: 4, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: core.Task{Procs: 4, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: core.Task{Procs: 2, Duration: 5, Deadline: 100}, Preds: []int{1, 2}},
		},
	}}}
	ag := NewDAGAgent(job)
	var configured *Grant
	ag.Configure = func(g *Grant) { configured = g }
	g, err := ag.NegotiateWith(arb)
	if err != nil {
		t.Fatal(err)
	}
	if configured != g || ag.Grant() != g {
		t.Fatal("grant not retained/configured")
	}
	if g.Quality != 0.9 {
		t.Fatalf("quality = %v", g.Quality)
	}
	if g.Placement.Tasks[1].Start != g.Placement.Tasks[2].Start {
		t.Fatal("branches not concurrent")
	}
	// Invalid job rejected before hitting the wire.
	if _, err := NewDAGAgent(core.DAGJob{ID: 2}).NegotiateWith(arb); err == nil {
		t.Fatal("invalid DAG job negotiated")
	}
	// Admission rejection propagates.
	tight := job
	tight.ID = 3
	tight.Alts = append([]core.DAG(nil), job.Alts...)
	tight.Alts[0].Tasks = append([]core.DAGTask(nil), job.Alts[0].Tasks...)
	for i := range tight.Alts[0].Tasks {
		tight.Alts[0].Tasks[i].Deadline = 12
	}
	if _, err := NewDAGAgent(tight).NegotiateWith(arb); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}
