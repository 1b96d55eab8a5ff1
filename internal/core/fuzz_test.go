package core_test

import (
	"testing"

	"milan/internal/core/proftest"
)

// FuzzProfileOps feeds byte-decoded operation sequences (see
// proftest.DecodeOps: 7 bytes per op — kind+jitter flags, procs, start,
// duration, deadline) through the indexed/linear profile pair and fails on
// any divergence in query answers, mutation outcomes, segment structure, or
// invariants.  The first input byte selects the machine capacity so the
// fuzzer also explores degenerate machines (capacity 1) and wide ones.
//
// Run with: go test -fuzz=FuzzProfileOps ./internal/core
// Seed corpus: internal/core/testdata/fuzz/FuzzProfileOps.
func FuzzProfileOps(f *testing.F) {
	// A fit-then-reserve, a probe of each kind, a trim, and an epsilon-
	// jittered reserve, at two capacities.
	f.Add([]byte{2, 0})
	f.Add([]byte{
		7,                           // capacity 8
		1, 3, 0x10, 0x20, 40, 0, 10, // ReserveFit
		4, 1, 0x10, 0x28, 20, 0xff, 0xff, // EarliestFit, infinite deadline
		3, 2, 0x00, 0x00, 10, 0, 0, // MinAvail
		5, 1, 0x05, 0x00, 5, 0, 99, // Holes
		2, 1, 0x08, 0x00, 1, 0, 0, // Trim
		0x08, 2, 0x10, 0x20, 12, 0, 7, // Reserve with +eps jitter on start
	})
	f.Add([]byte{
		0, // capacity 1
		1, 1, 0x00, 0x01, 200, 0xff, 0xff,
		1, 1, 0x00, 0x01, 200, 0xff, 0xff,
		6, 1, 0x7f, 0xff, 50, 0, 0, // Busy
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			t.Skip() // bound the cost of one input
		}
		capacity := 1 + int(data[0])%16
		ops := proftest.DecodeOps(data[1:], capacity)
		if len(ops) == 0 {
			return
		}
		proftest.Check(t, capacity, ops)
	})
}
