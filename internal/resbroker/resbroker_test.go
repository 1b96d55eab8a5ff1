package resbroker

import (
	"strings"
	"sync"
	"testing"
)

func res(id string, procs int, speed float64) Resource {
	return Resource{ID: id, Procs: procs, Speed: speed}
}

func newPool(t *testing.T, policy Policy) *Broker {
	t.Helper()
	b := New(policy)
	for _, r := range []Resource{
		res("smp1", 8, 1.0),
		res("smp2", 4, 2.0),
		res("node3", 16, 0.5),
	} {
		if err := b.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestResourceValidate(t *testing.T) {
	if err := res("a", 4, 1).validate(); err != nil {
		t.Error(err)
	}
	bad := []Resource{
		{ID: "", Procs: 4, Speed: 1},
		{ID: "a", Procs: 0, Speed: 1},
		{ID: "a", Procs: 4, Speed: 0},
	}
	for i, r := range bad {
		if r.validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRegisterDeregister(t *testing.T) {
	b := newPool(t, nil)
	if got := b.TotalProcs(); got != 28 {
		t.Fatalf("TotalProcs = %d, want 28", got)
	}
	if err := b.Register(res("smp1", 2, 1)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := b.Deregister("smp2"); err != nil {
		t.Fatal(err)
	}
	if got := b.TotalProcs(); got != 24 {
		t.Fatalf("TotalProcs after deregister = %d", got)
	}
	if err := b.Deregister("ghost"); err == nil {
		t.Error("deregistering unknown resource succeeded")
	}
}

func TestBindFirstFitPacksInRegistrationOrder(t *testing.T) {
	b := newPool(t, nil)
	bd, err := b.Bind(Request{Computation: "job1", MinProcs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Procs() != 10 {
		t.Fatalf("binding procs = %d, want 10", bd.Procs())
	}
	// First fit: all of smp1 (8), then 2 from smp2.
	if len(bd.Shares) != 2 || bd.Shares[0].ResourceID != "smp1" || bd.Shares[0].Procs != 8 ||
		bd.Shares[1].ResourceID != "smp2" || bd.Shares[1].Procs != 2 {
		t.Fatalf("shares = %+v", bd.Shares)
	}
	if got := b.FreeProcs(); got != 18 {
		t.Fatalf("FreeProcs = %d, want 18", got)
	}
}

func TestBindFastestFirstPrefersFastResources(t *testing.T) {
	b := newPool(t, FastestFirst{})
	bd, err := b.Bind(Request{Computation: "job1", MinProcs: 6})
	if err != nil {
		t.Fatal(err)
	}
	// smp2 (speed 2) first: 4 procs, then smp1 (speed 1): 2 procs.
	if bd.Shares[0].ResourceID != "smp2" || bd.Shares[0].Procs != 4 {
		t.Fatalf("shares = %+v", bd.Shares)
	}
}

func TestBindFailuresLeavePoolUnchanged(t *testing.T) {
	b := newPool(t, nil)
	if _, err := b.Bind(Request{Computation: "", MinProcs: 1}); err == nil {
		t.Error("unnamed computation bound")
	}
	if _, err := b.Bind(Request{Computation: "j", MinProcs: 0}); err == nil {
		t.Error("zero-proc request bound")
	}
	if _, err := b.Bind(Request{Computation: "big", MinProcs: 100}); err == nil {
		t.Error("oversized request bound")
	}
	if got := b.FreeProcs(); got != 28 {
		t.Fatalf("failed binds changed free capacity: %d", got)
	}
	if _, err := b.Bind(Request{Computation: "j", MinProcs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Bind(Request{Computation: "j", MinProcs: 2}); err == nil {
		t.Error("double binding accepted")
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	b := newPool(t, nil)
	if _, err := b.Bind(Request{Computation: "j", MinProcs: 28}); err != nil {
		t.Fatal(err)
	}
	if b.FreeProcs() != 0 {
		t.Fatal("pool not exhausted")
	}
	if err := b.Release("j"); err != nil {
		t.Fatal(err)
	}
	if b.FreeProcs() != 28 {
		t.Fatal("release did not return capacity")
	}
	if err := b.Release("j"); err == nil {
		t.Error("double release succeeded")
	}
}

func TestDeregisterBlockedWhileCommitted(t *testing.T) {
	b := newPool(t, nil)
	if _, err := b.Bind(Request{Computation: "j", MinProcs: 8}); err != nil {
		t.Fatal(err)
	}
	err := b.Deregister("smp1")
	if err == nil || !strings.Contains(err.Error(), "committed") {
		t.Fatalf("err = %v, want committed-procs refusal", err)
	}
	if err := b.Release("j"); err != nil {
		t.Fatal(err)
	}
	if err := b.Deregister("smp1"); err != nil {
		t.Fatal(err)
	}
}

func TestEventsDriveRenegotiation(t *testing.T) {
	b := New(nil)
	var events []Event
	b.Subscribe(func(ev Event) { events = append(events, ev) })
	b.Register(res("a", 4, 1))
	b.Bind(Request{Computation: "j", MinProcs: 2})
	b.Release("j")
	b.Deregister("a")
	kinds := []EventKind{eventRegistered, eventBound, eventReleased, eventDeregistered}
	if len(events) != len(kinds) {
		t.Fatalf("events = %+v", events)
	}
	for i, k := range kinds {
		if events[i].Kind != k {
			t.Errorf("event %d = %v, want %v", i, events[i].Kind, k)
		}
	}
	// FreeProcs trail: 4 after register, 2 after bind, 4 after release, 0
	// after deregister.
	wantFree := []int{4, 2, 4, 0}
	for i, w := range wantFree {
		if events[i].FreeProcs != w {
			t.Errorf("event %d free = %d, want %d", i, events[i].FreeProcs, w)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestBindingsSnapshot(t *testing.T) {
	b := newPool(t, nil)
	b.Bind(Request{Computation: "zeta", MinProcs: 2})
	b.Bind(Request{Computation: "alpha", MinProcs: 2})
	bds := b.Bindings()
	if len(bds) != 2 || bds[0].Computation != "alpha" || bds[1].Computation != "zeta" {
		t.Fatalf("bindings = %+v", bds)
	}
}

func TestConcurrentBindRelease(t *testing.T) {
	b := New(nil)
	b.Register(res("big", 64, 1))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if _, err := b.Bind(Request{Computation: name, MinProcs: 2}); err != nil {
				t.Errorf("bind %s: %v", name, err)
				return
			}
			b.Release(name)
		}(i)
	}
	wg.Wait()
	if b.FreeProcs() != 64 {
		t.Fatalf("free = %d after all released", b.FreeProcs())
	}
}
