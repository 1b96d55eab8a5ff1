package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirectComputation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.n != len(xs) {
		t.Fatalf("n = %d, want %d", w.n, len(xs))
	}
	if got, want := w.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	// Sample variance of the classic dataset: sum sq dev = 32, n-1 = 7.
	if got, want := w.variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, want)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.variance() != 0 || w.CI95() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.variance() != 0 {
		t.Error("single observation: mean 42, var 0 expected")
	}
}

func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.Float64()*1000 - 500
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		variance := sq / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.variance()-variance) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "util"
	s.Add(1, 0.5)
	s.Add(2, 0.9)
	s.Add(3, 0.7)
	if len(s.X) != 3 || len(s.Y) != 3 || s.X[1] != 2 || s.Y[1] != 0.9 {
		t.Errorf("series = %+v, want the three points in order", s)
	}
}
