package qos

import (
	"errors"
	"testing"

	"milan/internal/core"
)

// TestDynamicObserverSeesEveryDecision checks the DynamicArbitrator's
// Observer callback mirrors the admission decision stream, including
// rejections and retried waiting jobs.
func TestDynamicObserverSeesEveryDecision(t *testing.T) {
	d := newDyn(t, 4)
	var decisions []Decision
	d.Observer = func(dec Decision) { decisions = append(decisions, dec) }

	if _, err := d.Negotiate(core.Job{ID: 1, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 4, Duration: 10, Deadline: 100}}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Impossible deadline: a rejected decision.
	if _, err := d.Negotiate(core.Job{ID: 2, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 4, Duration: 10, Deadline: 5}}},
	}}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}

	if len(decisions) != 2 {
		t.Fatalf("decisions = %d, want 2", len(decisions))
	}
	if decisions[0].Kind != KindAdmitted || decisions[0].Job.ID != 1 || decisions[0].Grant == nil {
		t.Fatalf("decision[0] = %+v", decisions[0])
	}
	if decisions[1].Kind != KindRejected || decisions[1].Job.ID != 2 {
		t.Fatalf("decision[1] = %+v", decisions[1])
	}
}

// TestDynamicObserverSeesRetriedWaiters checks queued rejections replayed
// after capacity growth also flow through the Observer.
func TestDynamicObserverSeesRetriedWaiters(t *testing.T) {
	d := newDyn(t, 2)
	var decisions []Decision
	d.Observer = func(dec Decision) { decisions = append(decisions, dec) }

	// Needs 8 processors: waits on a 2-processor machine.
	granted := 0
	if _, err := d.NegotiateOrWait(core.Job{ID: 1, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 8, Duration: 10, Deadline: 1e6}}},
	}}, func(*Grant) { granted++ }); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (queued)", err)
	}
	if d.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1", d.Waiting())
	}
	if _, err := d.SetCapacity(8); err != nil {
		t.Fatal(err)
	}
	if granted != 1 {
		t.Fatalf("onGrant fired %d times, want 1", granted)
	}
	// One rejected decision, then one granted decision from the retry.
	if len(decisions) != 2 {
		t.Fatalf("decisions = %d, want 2: %+v", len(decisions), decisions)
	}
	if decisions[0].Kind != KindRejected || decisions[1].Kind != KindAdmitted || decisions[1].Grant == nil {
		t.Fatalf("decision stream = %+v", decisions)
	}
}
