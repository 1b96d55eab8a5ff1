package durable

import (
	"errors"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// TestServedAdmissionAllocationBudget is the served path's counted contract,
// layer by layer, over the Figure-4 tunable stream on an in-memory disk:
// what a granted admission allocates through the plane alone (one object:
// the qos.GrantBox the plan is made in, whose task array the journal record
// and the live set read where it is) and through a whole loopback round trip
// (that, the client's box, and a few dozen requests' share of the decoder's
// chunks, which the whole-number average drops), and that a refused one
// allocates nothing.  Equalities, so a lower layer going back to its old
// count cannot hide under a higher layer's slack.
func TestServedAdmissionAllocationBudget(t *testing.T) {
	const runs = 512 // every chunk of the decoder is started several times
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	granted := make([]core.Job, 2*(runs+1)) // AllocsPerRun warms up with one extra call
	for i := range granted {
		// At most three of these overlap, 12 of 16 processors: all granted.
		granted[i] = fig.Job(i, float64(i)*50, workload.Tunable)
	}
	refused := workload.FigureJob{X: 32, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(-1, 0, workload.Tunable)

	// A journal that is written and never flushed: the in-memory disk's
	// flush copies the file, which is the fake's cost and not the plane's.
	p, _ := openPlane(t, vfs.NewMem(), 1, StoreOptions{Sync: SyncNever})
	defer p.Close()
	srv, err := qosnet.ListenAndServe(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	next := 0
	perCall := func(n qos.Negotiator, wantGrant bool) float64 {
		return testing.AllocsPerRun(runs, func() {
			job := refused
			if wantGrant {
				job = granted[next]
				next++
				p.Observe(job.Release)
			}
			if _, err := n.Negotiate(job); wantGrant != (err == nil) || (err != nil && !errors.Is(err, qos.ErrRejected)) {
				t.Fatalf("job %d: %v (want a grant: %v)", job.ID, err, wantGrant)
			}
		})
	}
	for _, tc := range []struct {
		name      string
		n         qos.Negotiator
		wantGrant bool
		want      float64
	}{
		{"plane/granted", p, true, 1},
		{"plane/rejected", p, false, 0},
		{"round-trip/granted", cli, true, 2},
		{"round-trip/rejected", cli, false, 0},
	} {
		got := perCall(tc.n, tc.wantGrant)
		if got != tc.want {
			t.Errorf("%s: %v allocations per admission, want %v", tc.name, got, tc.want)
		}
	}
}
