package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Property tests for HistSnapshot.merge: the fold must be commutative
// and associative so a cluster aggregator can merge node histograms in
// ANY grouping/order and land on the identical snapshot.  Observations
// are integer nanoseconds, so bit-for-bit equality is the honest
// assertion, not an epsilon compare.

// randHist drives n random observations spanning under-range, in-range,
// and over-range into a fresh histogram.
func randHist(rng *rand.Rand, n int) HistSnapshot {
	var h Hist
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(rng.Int63n(1 << 36)))
	}
	h.Observe(-1)      // under range
	h.Observe(1 << 40) // over range
	return h.Snapshot()
}

func mergeAll(t *testing.T, snaps ...HistSnapshot) HistSnapshot {
	t.Helper()
	out := snaps[0]
	out.Buckets = append([]int64(nil), snaps[0].Buckets...)
	for _, s := range snaps[1:] {
		if err := out.merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestHistMergeCommutativeAssociative(t *testing.T) {
	// Every Hist counts on the one log-linear layout.
	t.Run("loglinear", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			a := randHist(rng, rng.Intn(200))
			b := randHist(rng, rng.Intn(200))
			c := randHist(rng, rng.Intn(200))

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

// Merging a snapshot counted on another layout — scraped from a program
// built with other bucket edges — must fail loudly, never silently mangle.
func TestHistMergeShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mine := randHist(rng, 10)
	uniform := HistSnapshot{Lo: 0, Hi: 1 << 20, Buckets: make([]int64, 32), Count: 1}
	narrow := mine
	narrow.Hi = float64(int64(1) << 14)
	narrow.Buckets = narrow.Buckets[:6*histSub]
	narrow.Bounds = narrow.Bounds[:6*histSub]
	shifted := mine
	shifted.Bounds = append([]float64(nil), mine.Bounds...)
	shifted.Bounds[3]++
	for name, foreign := range map[string]HistSnapshot{"uniform": uniform, "narrow": narrow, "shifted": shifted} {
		m := mine
		m.Buckets = append([]int64(nil), mine.Buckets...)
		if err := m.merge(foreign); err == nil {
			t.Errorf("%s layout merged", name)
		}
		// The cluster merge refuses it even as the first of its name.
		var cluster Snapshot
		if err := cluster.Merge(Snapshot{Histograms: map[string]HistSnapshot{"h": foreign}}); err == nil {
			t.Errorf("%s layout taken into an empty cluster snapshot", name)
		}
	}
}
