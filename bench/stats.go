package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks; NaN when the slice is empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is how the
// benchmark driver measures spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the first and the third quartile.
func iqr(v []float64) float64 {
	q1, q3 := quartiles(v)
	return q3 - q1
}

// nsQuantilesUs sorts nanosecond samples in place and returns the requested
// quantiles in microseconds.
func nsQuantilesUs(ns []int64, qs ...float64) []float64 {
	slices.Sort(ns)
	out := make([]float64, len(qs))
	for k, q := range qs {
		if len(ns) == 0 {
			out[k] = math.NaN()
			continue
		}
		// Nearest rank: a percentile is reported only where a sample sits.
		i := int(math.Ceil(q*float64(len(ns)))) - 1
		if i < 0 {
			i = 0
		}
		out[k] = float64(ns[i]) / 1e3
	}
	return out
}
