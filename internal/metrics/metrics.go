// Package metrics provides the measurement side of the evaluation: running
// statistics with confidence intervals, the labelled series the experiment
// tables print, and their ASCII charts.
package metrics

import "math"

// Welford accumulates mean and variance in one pass (Welford's algorithm),
// numerically stable for the long experiment runs (10,000 arrivals per
// point).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// std returns the sample standard deviation.
func (w *Welford) std() float64 { return math.Sqrt(w.variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.std() / math.Sqrt(float64(w.n))
}

// Series is a labeled sequence of (x, y) points, the unit the experiment
// harness hands to table printers.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}
