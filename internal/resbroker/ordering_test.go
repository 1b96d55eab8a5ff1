package resbroker

import (
	"fmt"
	"sync"
	"testing"
)

// TestEventDeliveryOrderedUnderConcurrentBind pins the subscription
// contract: subscribers observe events in state-change order, even when
// the mutations race on many goroutines.  Each event carries the pool's
// FreeProcs snapshot taken inside the mutation's critical section, so the
// delivered sequence of FreeProcs values must replay exactly — every Bound
// event drops free capacity by exactly its binding's size relative to the
// previous event, every Released raises it back.  Before delivery was
// FIFO-queued this failed: two racing Binds could deliver their events in
// the opposite order to their commits.
func TestEventDeliveryOrderedUnderConcurrentBind(t *testing.T) {
	const procs = 64
	const workers = 16
	const rounds = 25

	b := New(nil)

	var evMu sync.Mutex
	var events []Event
	b.Subscribe(func(ev Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	})

	if err := b.Register(Resource{ID: "m0", Procs: procs, Speed: 1}); err != nil {
		t.Fatalf("register: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("c%d-%d", w, r)
				if _, err := b.Bind(Request{Computation: name, MinProcs: 1}); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				if err := b.Release(name); err != nil {
					t.Errorf("release %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	evMu.Lock()
	defer evMu.Unlock()

	want := 1 + 2*workers*rounds // register + (bind+release) per round
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	if events[0].Kind != eventRegistered || events[0].FreeProcs != procs {
		t.Fatalf("first event = %+v, want registered with %d free", events[0], procs)
	}

	// Replay: every binding is 1 processor, so in delivery order each
	// Bound must read exactly one less free than the previous event and
	// each Released exactly one more.  Any reordering of two racing
	// mutations breaks the chain.
	free := procs
	for i, ev := range events[1:] {
		switch ev.Kind {
		case eventBound:
			free--
		case eventReleased:
			free++
		default:
			t.Fatalf("event %d: unexpected kind %v", i+1, ev.Kind)
		}
		if ev.FreeProcs != free {
			t.Fatalf("event %d (%v): FreeProcs=%d, replay expects %d — delivery out of state-change order",
				i+1, ev.Kind, ev.FreeProcs, free)
		}
	}
	if free != procs {
		t.Fatalf("replay ends at %d free, want %d", free, procs)
	}
}

// TestEventDeliveryReentrant pins that a subscriber may call back into the
// broker from inside its callback: the nested mutation's event is queued
// and delivered (in order) by the active drainer rather than deadlocking
// or recursing.
func TestEventDeliveryReentrant(t *testing.T) {
	b := New(nil)
	var kinds []EventKind
	b.Subscribe(func(ev Event) {
		kinds = append(kinds, ev.Kind)
		// On the first registration, bind from inside the callback.
		if ev.Kind == eventRegistered && ev.Resource == "m0" {
			if _, err := b.Bind(Request{Computation: "nested", MinProcs: 1}); err != nil {
				t.Errorf("nested bind: %v", err)
			}
		}
	})
	if err := b.Register(Resource{ID: "m0", Procs: 4, Speed: 1}); err != nil {
		t.Fatalf("register: %v", err)
	}
	wantKinds := []EventKind{eventRegistered, eventBound}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("got %d events %v, want %v", len(kinds), kinds, wantKinds)
	}
	for i, k := range wantKinds {
		if kinds[i] != k {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], k)
		}
	}
}
