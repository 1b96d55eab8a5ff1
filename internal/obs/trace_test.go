package obs

import "testing"

func TestRingSinkBelowCapacity(t *testing.T) {
	r := newRingSink(4)
	r.Emit(Event{Type: evRejected, Job: 1})
	r.Emit(Event{Type: evCommitted, Job: 1})
	evs := r.events()
	if len(evs) != 2 {
		t.Fatalf("len = %d, want 2", len(evs))
	}
	if evs[0].Type != evRejected || evs[1].Type != evCommitted {
		t.Fatalf("events = %+v", evs)
	}
	if r.ring.Total() != 2 {
		t.Fatalf("total = %d, want 2", r.ring.Total())
	}
}

func TestRingSinkWrapsKeepingNewest(t *testing.T) {
	r := newRingSink(3)
	for i := 1; i <= 7; i++ {
		r.Emit(Event{Type: evEventFired, Job: i})
	}
	evs := r.events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []int{5, 6, 7} {
		if evs[i].Job != want {
			t.Fatalf("evs[%d].Job = %d, want %d (events=%v)", i, evs[i].Job, want, evs)
		}
	}
	if r.ring.Total() != 7 {
		t.Fatalf("total = %d, want 7", r.ring.Total())
	}
}

// TestRingSinkDroppedAccountingUnderWrap is the regression test for the
// ring's wrap semantics: eviction must preserve emission order and be
// accounted in Dropped rather than silently overwritten, and the invariant
// Total() == Dropped() + len(Events()) must hold at every point.
func TestRingSinkDroppedAccountingUnderWrap(t *testing.T) {
	r := newRingSink(3)
	check := func(step int) {
		t.Helper()
		if got, want := r.ring.Total(), r.ring.Dropped()+int64(len(r.events())); got != want {
			t.Fatalf("step %d: Total()=%d but Dropped()+len(Events())=%d", step, got, want)
		}
	}
	for i := 1; i <= 2; i++ {
		r.Emit(Event{Type: evEventFired, Job: i})
		check(i)
	}
	if r.ring.Dropped() != 0 {
		t.Fatalf("dropped below capacity: %d", r.ring.Dropped())
	}
	for i := 3; i <= 10; i++ {
		r.Emit(Event{Type: evEventFired, Job: i})
		check(i)
	}
	if r.ring.Dropped() != 7 || r.ring.Total() != 10 {
		t.Fatalf("dropped=%d total=%d, want 7/10", r.ring.Dropped(), r.ring.Total())
	}
	// The surviving window is the newest contiguous suffix, in order.
	evs := r.events()
	for i, want := range []int{8, 9, 10} {
		if evs[i].Job != want {
			t.Fatalf("evs[%d].Job = %d, want %d (%v)", i, evs[i].Job, want, evs)
		}
	}
}

func TestNewRingSinkPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRingSink(0) did not panic")
		}
	}()
	newRingSink(0)
}
