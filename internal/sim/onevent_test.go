package sim

import "testing"

func TestOnEventObservesEveryFiring(t *testing.T) {
	var e Engine
	type fired struct {
		name string
		t    float64
	}
	var log []fired
	e.OnEvent = func(name string, now float64) {
		log = append(log, fired{name, now})
		if e.Now() != now {
			t.Fatalf("OnEvent time %v != engine clock %v", now, e.Now())
		}
	}
	e.At(3, "c", func() {})
	e.At(1, "a", func() {
		e.At(2, "b", func() {}) // scheduled from inside a callback
	})
	if n := e.Run(); n != 3 {
		t.Fatalf("processed = %d, want 3", n)
	}
	want := []fired{{"a", 1}, {"b", 2}, {"c", 3}}
	if len(log) != len(want) {
		t.Fatalf("log = %+v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %+v, want %+v", i, log[i], want[i])
		}
	}
}

func TestNilOnEventIsFastPath(t *testing.T) {
	var e Engine // OnEvent nil
	e.At(1, "x", func() {})
	if n := e.Run(); n != 1 {
		t.Fatalf("processed = %d, want 1", n)
	}
}
