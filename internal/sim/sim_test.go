package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	var e Engine
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, "tick", func() { got = append(got, at) })
	}
	if n := e.Run(); n != 5 {
		t.Fatalf("Run fired %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "same", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var trace []string
	e.At(1, "a", func() {
		trace = append(trace, "a")
		e.At(e.Now()+2, "b", func() { trace = append(trace, "b") })
		e.At(e.Now()+0.5, "c", func() { trace = append(trace, "c") })
	})
	e.Run()
	want := []string{"a", "c", "b"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

// TestArriveKeepsTieOrder: an event arrival i schedules at arrival i+1's
// instant fires before arrival i+1, because Arrive schedules the next
// arrival only once the current one has returned.  An engine that
// scheduled every arrival up front would fire the arrival first.
func TestArriveKeepsTieOrder(t *testing.T) {
	var e Engine
	at := []float64{1, 2, 2, 3}
	var got []string
	e.Arrive(len(at), func(i int) float64 { return at[i] }, func(i int) {
		got = append(got, fmt.Sprintf("arrival %d", i))
		if i+1 < len(at) {
			e.At(at[i+1], "complete", func() { got = append(got, fmt.Sprintf("complete %d", i)) })
		}
	})
	if n := e.Run(); n != 7 {
		t.Fatalf("Run fired %d events, want 7", n)
	}
	want := []string{"arrival 0", "complete 0", "arrival 1", "complete 1", "arrival 2", "complete 2", "arrival 3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	var e Engine
	e.At(5, "x", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.At(1, "late", func() {})
}

// TestQuickClockMonotoneAndComplete: random schedules always fire every
// event exactly once, in nondecreasing time order.
func TestQuickClockMonotoneAndComplete(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		n := 1 + int(nRaw%100)
		var fired []float64
		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			e.At(at, "t", func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
