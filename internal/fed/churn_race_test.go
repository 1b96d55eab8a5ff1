package fed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"milan/internal/resbroker"
)

// TestRebalancerBrokerChurnRace hammers the one-shard plane from both
// sides at once: admissions negotiate a Figure-4 stream while broker churn
// goroutines flood register/withdraw events that resize the plane through
// AttachBroker.  Run under -race this is the data-race probe for the
// pool-following path; the post-churn assertions pin the structural
// invariants — the profile never over-admits, and capacity settles to
// exactly the surviving pool.
func TestRebalancerBrokerChurnRace(t *testing.T) {
	const (
		procs    = 32
		machines = 8
		churners = 4
		flips    = 50
	)

	plane, err := New(Config{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}

	broker := resbroker.New(nil)
	for i := 0; i < machines; i++ {
		if err := broker.Register(resbroker.Resource{
			ID:    fmt.Sprintf("base-%d", i),
			Procs: procs / machines,
			Speed: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop, err := plane.AttachBroker(broker, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup

	// Admission side: one clock owner negotiating a paced overload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, job := range smallStream(400, 2, 99) {
			plane.Observe(job.Release)
			if _, err := plane.Negotiate(job); err == nil {
				admitted.Add(1)
			} else {
				rejected.Add(1)
			}
		}
	}()

	// Churn side: transient machines flapping in and out of the pool
	// while admissions run.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < flips; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i)
				if err := broker.Register(resbroker.Resource{ID: id, Procs: 4, Speed: 1}); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if err := broker.Deregister(id); err != nil {
					t.Errorf("deregister %s: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if admitted.Load() == 0 {
		t.Fatal("no job admitted during churn; the race window was never exercised")
	}
	if rejected.Load() == 0 {
		t.Fatal("no job rejected during churn; the stream did not stress capacity")
	}

	// Quiesce: every transient machine has withdrawn, so the plane must
	// settle back to exactly the base pool.  Advance past every possible
	// reservation first so shrink headroom cannot race with history.
	plane.Observe(1e9)
	want := broker.TotalProcs()
	if want != procs {
		t.Fatalf("broker pool ended at %d procs, want %d — churn leaked machines", want, procs)
	}
	if got, err := plane.SetTotalCapacity(want); err != nil || got != want {
		t.Fatalf("settle to %d procs: got %d, err %v", want, got, err)
	}
	if got := plane.Procs(); got != want {
		t.Errorf("plane holds %d processors, pool holds %d — capacity not conserved", got, want)
	}
	// CheckInvariants re-validates the profile: admission during a shrink
	// must never leave it holding more reserved work than processors (the
	// over-admission probe).
	if err := plane.CheckInvariants(); err != nil {
		t.Errorf("post-churn invariants: %v", err)
	}
}

// TestAttachBrokerStopDetaches pins the detach contract under load: after
// stop() the plane must ignore further pool changes.
func TestAttachBrokerStopDetaches(t *testing.T) {
	plane, err := New(Config{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	broker := resbroker.New(nil)
	for i := 0; i < 2; i++ {
		if err := broker.Register(resbroker.Resource{ID: fmt.Sprintf("m%d", i), Procs: 8, Speed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	stop, err := plane.AttachBroker(broker, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(resbroker.Resource{ID: "grow", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != 24 {
		t.Fatalf("attached plane at %d procs, want 24", got)
	}
	stop()
	if err := broker.Register(resbroker.Resource{ID: "late", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != 24 {
		t.Fatalf("detached plane resized to %d procs", got)
	}
}

// TestAttachBrokerStopRacesPoolChurn calls stop() while another goroutine
// registers and deregisters machines: the follower's detach flag is written
// by the caller and read by whichever goroutine drains the broker's events,
// so it has to be atomic (-race is the judge).
func TestAttachBrokerStopRacesPoolChurn(t *testing.T) {
	plane, err := New(Config{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	broker := resbroker.New(nil)
	if err := broker.Register(resbroker.Resource{ID: "seed", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	stop, err := plane.AttachBroker(broker, 0)
	if err != nil {
		t.Fatal(err)
	}
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 200; i++ {
			if err := broker.Register(resbroker.Resource{ID: "m", Procs: 2, Speed: 1}); err != nil {
				t.Error(err)
				return
			}
			if err := broker.Deregister("m"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop()
	<-churned
	if got := plane.Procs(); got != 8 && got != 10 {
		t.Fatalf("plane at %d procs after churn between 8 and 10", got)
	}
}
