package qosnet

import (
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/qos"
)

// shardStamper wraps an arbitrator and stamps every grant with a fixed
// shard, standing in for a federated plane behind the wire.
type shardStamper struct {
	*qos.Arbitrator
	shard int
}

func (s shardStamper) Negotiate(job core.Job) (*qos.Grant, error) {
	g, err := s.Arbitrator.Negotiate(job)
	if g != nil {
		g.Shard = s.shard
	}
	return g, err
}

// TestIdentityRoundTrip pins that the accounting identity — the job's
// Tenant and Class on the request, the granting Shard on the response —
// survives the gob wire format in both directions.
func TestIdentityRoundTrip(t *testing.T) {
	// The observer runs on the server's connection goroutine.
	var mu sync.Mutex
	var hist []qos.Decision
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{
		Procs: 8,
		Observer: func(d qos.Decision) {
			mu.Lock()
			hist = append(hist, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(shardStamper{arb, 3}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	j := job(7, 2, 10, 100)
	j.Tenant = "acme"
	j.Class = 2
	g, err := cli.Negotiate(j)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shard != 3 {
		t.Errorf("grant shard = %d, want 3 (lost on the wire)", g.Shard)
	}
	// The server-side arbitrator must have seen the tenant identity: the
	// ledger keys accounting off the decision's job.
	mu.Lock()
	defer mu.Unlock()
	if len(hist) != 1 {
		t.Fatalf("history has %d decisions, want 1", len(hist))
	}
	if got := hist[0].Job; got.Tenant != "acme" || got.Class != 2 {
		t.Errorf("server saw tenant %q class %d, want acme/2", got.Tenant, got.Class)
	}
}
