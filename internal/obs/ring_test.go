package obs

import (
	"slices"
	"testing"
)

// TestRingWrap pins the generic ring's eviction contract across the three
// interesting regimes: under capacity, exactly at capacity, and after
// wrapping several times over.
func TestRingWrap(t *testing.T) {
	const capN = 4
	r := NewRing[int](capN)
	if got := cap(r.buf); got != capN {
		t.Fatalf("Cap() = %d, want %d", got, capN)
	}
	check := func(pushed int) {
		t.Helper()
		wantLen := pushed
		if wantLen > capN {
			wantLen = capN
		}
		if r.Len() != wantLen {
			t.Fatalf("after %d pushes: Len() = %d, want %d", pushed, r.Len(), wantLen)
		}
		if r.Total() != int64(pushed) {
			t.Fatalf("after %d pushes: Total() = %d, want %d", pushed, r.Total(), pushed)
		}
		wantDropped := int64(pushed - wantLen)
		if r.Dropped() != wantDropped {
			t.Fatalf("after %d pushes: Dropped() = %d, want %d", pushed, r.Dropped(), wantDropped)
		}
		if r.Total() != r.Dropped()+int64(r.Len()) {
			t.Fatalf("accounting identity broken: Total=%d Dropped=%d Len=%d",
				r.Total(), r.Dropped(), r.Len())
		}
		items := r.Items()
		if len(items) != wantLen {
			t.Fatalf("after %d pushes: len(Items()) = %d, want %d", pushed, len(items), wantLen)
		}
		// Items must be the contiguous, insertion-ordered suffix of the
		// full stream: pushed-wantLen .. pushed-1.
		for i, v := range items {
			if want := pushed - wantLen + i; v != want {
				t.Fatalf("after %d pushes: Items()[%d] = %d, want %d (items=%v)",
					pushed, i, v, want, items)
			}
		}
		// since(n) is the part of that suffix pushed after the first n.
		for n := 0; n <= pushed; n++ {
			want := items[max(n, pushed-wantLen)-(pushed-wantLen):]
			if got := r.since(int64(n)); !slices.Equal(got, want) || (len(want) == 0) != (got == nil) {
				t.Fatalf("after %d pushes: since(%d) = %v, want %v", pushed, n, got, want)
			}
		}
	}
	for i := 0; i < 3*capN+1; i++ {
		r.Push(i)
		check(i + 1)
	}
	// Items() must return a copy, not alias the ring's storage.
	items := r.Items()
	items[0] = -999
	if got := r.Items()[0]; got == -999 {
		t.Fatalf("Items() aliases internal storage")
	}
}

func TestRingCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}
