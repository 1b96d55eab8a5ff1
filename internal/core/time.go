package core

import "math"

// Eps is the tolerance used for all time comparisons.  Simulation times are
// float64 values in abstract units; arithmetic on Poisson interarrival gaps
// and laxity-scaled deadlines produces values that are equal in intent but
// not bit-for-bit, so every ordering decision goes through these helpers.
const Eps = 1e-9

// inf is the positive-infinity time used for the open end of the capacity
// profile's final segment.
var inf = math.Inf(1)

// timeLess reports a < b beyond tolerance.
func timeLess(a, b float64) bool { return a < b-Eps }

// timeLeq reports a <= b within tolerance.
func timeLeq(a, b float64) bool { return a <= b+Eps }

// timeEq reports a == b within tolerance.
func timeEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= Eps
}

// dedupBreak reports whether a prospective profile breakpoint at t should
// be deduplicated against an existing breakpoint at b: the two are closer
// than the Eps tolerance (closed at Eps, matching timeEq), so inserting t
// would create a sub-tolerance segment sliver.  Centralized so the
// breakpoint-dedup policy is explicit and independently testable.
func dedupBreak(b, t float64) bool { return timeEq(b, t) }

// maxTime returns the larger of a and b.
func maxTime(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// minTime returns the smaller of a and b.
func minTime(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
