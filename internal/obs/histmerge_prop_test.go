package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// Property tests for HistSnapshot.merge: the fold must be commutative
// and associative so a cluster aggregator can merge node histograms in
// ANY grouping/order and land on the identical snapshot.  Observations
// are integer-valued (latency histograms record int64 nanoseconds), so
// the float64 Sum stays exactly representable and bit-for-bit equality
// is the honest assertion, not an epsilon compare.

// randHist builds a histogram with the given shape and drives n random
// integer observations spanning under-range, in-range, and over-range.
func randHist(rng *rand.Rand, logLinear bool, n int) HistSnapshot {
	reg := NewRegistry()
	var h *Hist
	if logLinear {
		h = reg.HistogramLogLinear("h", 8, 12, 4)
	} else {
		h = reg.Histogram("h", 0, 1<<20, 32)
	}
	for i := 0; i < n; i++ {
		h.Observe(float64(rng.Int63n(1 << 24)))
	}
	h.Observe(-1)               // under range
	h.Observe(float64(1 << 30)) // over range (both shapes), exactly representable
	return h.Snapshot()
}

func mergeAll(t *testing.T, snaps ...HistSnapshot) HistSnapshot {
	t.Helper()
	out := snaps[0]
	out.Buckets = append([]int64(nil), snaps[0].Buckets...)
	out.Bounds = append([]float64(nil), snaps[0].Bounds...)
	for _, s := range snaps[1:] {
		if err := out.merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestHistMergeCommutativeAssociative(t *testing.T) {
	for _, shape := range []struct {
		name      string
		logLinear bool
	}{{"uniform", false}, {"loglinear", true}} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				a := randHist(rng, shape.logLinear, rng.Intn(200))
				b := randHist(rng, shape.logLinear, rng.Intn(200))
				c := randHist(rng, shape.logLinear, rng.Intn(200))

				ab := mergeAll(t, a, b)
				ba := mergeAll(t, b, a)
				if !reflect.DeepEqual(ab, ba) {
					t.Fatalf("trial %d: merge not commutative:\nA+B=%+v\nB+A=%+v", trial, ab, ba)
				}
				abc := mergeAll(t, mergeAll(t, a, b), c)
				abc2 := mergeAll(t, a, mergeAll(t, b, c))
				if !reflect.DeepEqual(abc, abc2) {
					t.Fatalf("trial %d: merge not associative:\n(A+B)+C=%+v\nA+(B+C)=%+v", trial, abc, abc2)
				}
				// The merged totals are the exact sums.
				if abc.Count != a.Count+b.Count+c.Count {
					t.Fatalf("trial %d: merged count %d != %d", trial, abc.Count, a.Count+b.Count+c.Count)
				}
				if abc.Sum != a.Sum+b.Sum+c.Sum {
					t.Fatalf("trial %d: merged sum %v != %v", trial, abc.Sum, a.Sum+b.Sum+c.Sum)
				}
			}
		})
	}
}

// Merging mismatched shapes must fail loudly, never silently mangle.
func TestHistMergeShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := randHist(rng, false, 10)
	l := randHist(rng, true, 10)
	if err := u.merge(l); err == nil {
		t.Fatal("uniform+loglinear merge accepted")
	}
	reg := NewRegistry()
	narrow := reg.HistogramLogLinear("h", 8, 6, 4).Snapshot()
	if err := l.merge(narrow); err == nil {
		t.Fatal("different log-linear shapes merged")
	}
}
