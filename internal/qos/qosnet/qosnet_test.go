package qosnet

import (
	"errors"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/qos"
	"milan/internal/workload"
)

// startServer returns a running server on a loopback port and a connected
// client, both cleaned up with the test.
func startServer(t *testing.T, procs int) (*Server, *Client) {
	t.Helper()
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(arb, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func job(id int, procs int, dur, deadline float64) core.Job {
	return core.Job{ID: id, Chains: []core.Chain{
		{Name: "c", Quality: 1, Tasks: []core.Task{
			{Name: "t", Procs: procs, Duration: dur, Deadline: deadline},
		}},
	}}
}

func TestPing(t *testing.T) {
	_, cli := startServer(t, 4)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestNegotiateOverTCP(t *testing.T) {
	_, cli := startServer(t, 4)
	g, err := cli.Negotiate(job(1, 4, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if g.JobID != 1 || len(g.Placement.Tasks) != 1 {
		t.Fatalf("grant = %+v", g)
	}
	if g.Placement.Tasks[0].Start != 0 || g.Placement.Tasks[0].Finish != 10 {
		t.Fatalf("placement = %+v", g.Placement.Tasks[0])
	}
}

func TestRejectionCrossesTheWire(t *testing.T) {
	_, cli := startServer(t, 4)
	if _, err := cli.Negotiate(job(1, 4, 10, 20)); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Negotiate(job(2, 4, 10, 15))
	if !errors.Is(err, qos.ErrRejected) {
		t.Fatalf("err = %v, want qos.ErrRejected", err)
	}
}

func TestAgentNegotiatesThroughClient(t *testing.T) {
	_, cli := startServer(t, 16)
	p := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	ag := qos.NewAgent(p.Job(1, 0, workload.Tunable))
	g, err := ag.NegotiateWith(cli)
	if err != nil {
		t.Fatal(err)
	}
	if g.Chain != 0 && g.Chain != 1 {
		t.Fatalf("chain = %d", g.Chain)
	}
}

func TestObserveStatsOps(t *testing.T) {
	_, cli := startServer(t, 4)
	if _, err := cli.Negotiate(job(1, 2, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Observe(50); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultipleClientsShareOneSchedule(t *testing.T) {
	srv, cli1 := startServer(t, 4)
	cli2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli1.Negotiate(job(1, 4, 10, 20)); err != nil {
		t.Fatal(err)
	}
	// Client 2 sees client 1's reservation.
	if _, err := cli2.Negotiate(job(2, 4, 10, 15)); !errors.Is(err, qos.ErrRejected) {
		t.Fatalf("err = %v, want rejection due to shared schedule", err)
	}
	g, err := cli2.Negotiate(job(3, 4, 10, 25))
	if err != nil {
		t.Fatal(err)
	}
	if g.Placement.Tasks[0].Start != 10 {
		t.Fatalf("start = %v, want 10 (queued behind client 1)", g.Placement.Tasks[0].Start)
	}
}

func TestConcurrentClientRequests(t *testing.T) {
	_, cli := startServer(t, 64)
	var wg sync.WaitGroup
	errs := make([]error, 100)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cli.Negotiate(job(i, 1, 5, 1e9))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 100 {
		t.Fatalf("admitted = %d, want 100", st.Admitted)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, cli := startServer(t, 4)
	srv.Close()
	if err := cli.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
