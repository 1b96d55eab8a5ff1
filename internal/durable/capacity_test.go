package durable

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"milan/internal/durable/vfs"
	"milan/internal/resbroker"
)

// TestPlaneSetTotalCapacityJournaled: every single-processor resize is a
// journaled record, and a reopened plane recovers the exact capacity.
func TestPlaneSetTotalCapacityJournaled(t *testing.T) {
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, StoreOptions{})

	before := p.DurableLSN()
	got, err := p.SetTotalCapacity(24)
	if err != nil || got != 24 {
		t.Fatalf("SetTotalCapacity(24) = %d, %v", got, err)
	}
	if p.Procs() != 24 {
		t.Fatalf("live procs = %d, want 24", p.Procs())
	}
	// Growth from 16 to 24 is 8 single-processor resizes = 8 records.
	if appended := p.DurableLSN() - before; appended != 8 {
		t.Fatalf("grow by 8 appended %d records, want 8", appended)
	}

	// Shrink with no reservations succeeds and journals too.
	if got, err = p.SetTotalCapacity(20); err != nil || got != 20 {
		t.Fatalf("SetTotalCapacity(20) = %d, %v", got, err)
	}

	want := p.ExportState()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, _ := openPlane(t, mem, StoreOptions{})
	if p2.Procs() != 20 {
		t.Fatalf("recovered procs = %d, want 20", p2.Procs())
	}
	gotSt := p2.ExportState()
	if err := DiffStates(&gotSt, &want); err != nil {
		t.Fatalf("recovered state diverged after capacity churn: %v", err)
	}
	p2.Close()
}

// TestPlaneBrokerCapacityRecovered: broker pool churn must flow through the
// journal, so a crashed-and-recovered plane reports exactly the live pool's
// capacity.
func TestPlaneBrokerCapacityRecovered(t *testing.T) {
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, StoreOptions{Sync: SyncAlways})

	broker := resbroker.New(nil)
	// Seed the pool at the plane's current size so the follower starts
	// aligned (AttachBroker tracks deltas from the attach point).
	if err := broker.Register(resbroker.Resource{ID: "seed", Procs: 16, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	stop := p.AttachBroker(broker, 0)

	// Churn: machines join and leave; the plane follows every change.
	for i := 0; i < 3; i++ {
		if err := broker.Register(resbroker.Resource{ID: fmt.Sprintf("m%d", i), Procs: 4, Speed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.Deregister("m1"); err != nil {
		t.Fatal(err)
	}
	wantProcs := broker.TotalProcs()
	if p.Procs() != wantProcs {
		t.Fatalf("live plane procs = %d, broker pool = %d", p.Procs(), wantProcs)
	}

	// Interleave admissions so capacity records sit between decisions.
	drive(t, p.Observe, p.Negotiate, planeStream(40, 3))

	// Hard crash (no Close): recovery must reconstruct the pool-following
	// capacity from the journal alone.
	want := p.ExportState()
	crash(t, p, mem)
	p2, _ := openPlane(t, mem, StoreOptions{})
	if got := p2.Procs(); got != wantProcs {
		t.Fatalf("recovered capacity = %d, live broker pool = %d", got, wantProcs)
	}
	gotSt := p2.ExportState()
	if err := DiffStates(&gotSt, &want); err != nil {
		t.Fatalf("recovered state diverged from pre-crash plane: %v", err)
	}
	stop()
	p2.Close()
}

// TestPlaneCapacityJournalFailureReported: a capacity move whose journal
// write failed must not be reported as a success.  The arbitrator's
// observer cannot return the append error, so SetTotalCapacity surfaces
// the store's poison after fed.Arbitrator.SetTotalCapacity returns.
func TestPlaneCapacityJournalFailureReported(t *testing.T) {
	boom := errors.New("dead disk")
	check := func(t *testing.T, p *Plane, err error) {
		t.Helper()
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "plane poisoned, reopen required") {
			t.Fatalf("capacity move with a failed journal write returned %v", err)
		}
		if p.Err() == nil {
			t.Fatal("plane not poisoned after the failed capacity record")
		}
	}
	t.Run("SetTotalCapacity", func(t *testing.T) {
		ft := vfs.NewFault(vfs.NewMem())
		p, _ := openPlane(t, ft, StoreOptions{})
		ft.SetWriteError(boom, 0)
		got, err := p.SetTotalCapacity(17)
		check(t, p, err)
		if got != 17 {
			t.Fatalf("achieved total = %d, want the in-memory 17 alongside the error", got)
		}
	})
}
