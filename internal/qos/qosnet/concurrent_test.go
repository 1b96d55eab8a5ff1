package qosnet

import (
	"errors"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/fed"
	"milan/internal/qos"
)

// The federated arbitrator must satisfy the server-side interface so it
// drops in behind the wire protocol unchanged.
var _ Arbitrator = (*fed.Arbitrator)(nil)
var _ Arbitrator = (*qos.Arbitrator)(nil)

// runConcurrentClients hammers one server with many goroutine agents, each
// on its own connection, and checks the global capacity invariant: the
// admitted reservations can never exceed the machine's processor-time,
// no matter how the concurrent negotiations interleave.
func runConcurrentClients(t *testing.T, srv *Server, stats func() core.Stats, util func(o, h float64) float64, procs int) {
	t.Helper()
	const (
		clients  = 8
		perAgent = 25
		taskSize = 2
		taskDur  = 10.0
		deadline = 100.0
	)
	var admitted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer cli.Close()
			for i := 0; i < perAgent; i++ {
				id := c*perAgent + i
				g, err := cli.Negotiate(job(id, taskSize, taskDur, deadline))
				mu.Lock()
				switch {
				case err == nil:
					admitted++
				case errors.Is(err, qos.ErrRejected):
					rejected++
				default:
					t.Errorf("job %d: %v", id, err)
				}
				mu.Unlock()
				if err == nil && g.Finish() > deadline+core.Eps {
					t.Errorf("job %d granted past its deadline: %v", id, g.Finish())
				}
			}
		}(c)
	}
	wg.Wait()

	if admitted+rejected != clients*perAgent {
		t.Fatalf("decisions %d, jobs %d", admitted+rejected, clients*perAgent)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	st := stats()
	if int64(st.Admitted) != admitted {
		t.Fatalf("server stats admitted %d, clients saw %d grants", st.Admitted, admitted)
	}
	// Total admitted capacity never exceeds the pool: reserved area is
	// bounded by procs x deadline window, i.e. utilization <= 1.
	poolArea := float64(procs) * deadline
	if st.ReservedArea > poolArea+core.Eps {
		t.Fatalf("reserved area %v exceeds pool processor-time %v", st.ReservedArea, poolArea)
	}
	if u := util(0, deadline); u > 1+core.Eps {
		t.Fatalf("utilization %v exceeds 1", u)
	}
	// The workload saturates the pool, so the bound must be tight enough
	// to prove rejections came from capacity, not from races.
	if maxJobs := int64(poolArea / (taskSize * taskDur)); admitted > maxJobs {
		t.Fatalf("admitted %d jobs, pool fits at most %d", admitted, maxJobs)
	}
}

// TestConcurrentClientsMonolith runs N goroutine agents against one
// monolithic arbitrator server.
func TestConcurrentClientsMonolith(t *testing.T) {
	const procs = 8
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(arb, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	runConcurrentClients(t, srv, arb.Stats, arb.Utilization, procs)
}

// TestConcurrentClientsFederated runs the same workload against a sharded
// admission plane served over the identical wire protocol — the drop-in
// the fed package promises.
func TestConcurrentClientsFederated(t *testing.T) {
	const procs = 8
	plane, err := fed.New(fed.Config{Procs: procs, Shards: 4, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(plane, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	runConcurrentClients(t, srv, plane.Stats, plane.Utilization, procs)
	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != procs {
		t.Fatalf("plane holds %d procs, want %d", got, procs)
	}
}
