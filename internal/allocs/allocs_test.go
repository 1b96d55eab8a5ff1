package allocs

import "testing"

var sink []*[64]byte

//go:noinline
func three() { sink = append(sink[:0], new([64]byte), new([64]byte), new([64]byte)) }

type slab struct{ free []int64 }

//go:noinline
func (s *slab) next() *int64 {
	if len(s.free) == 0 {
		s.free = make([]int64, 10)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

var kept *int64

// TestCountIsExact: every object is counted, none twice, each at its site,
// and the warm-up call is left out.
func TestCountIsExact(t *testing.T) {
	sink = make([]*[64]byte, 0, 3)
	if total, _ := Count(100, three); total != 300 {
		t.Errorf("three objects a call, 100 calls: counted %d", total)
	}
	var s slab
	total, at := Count(100, func() { kept = s.next(); three() }, "milan/internal/allocs.(*slab).next")
	// The warm-up's box starts the first slab, and the 100 calls cut the
	// other nine and ten boxes of a tenth.
	if total != 310 || at[0] != 10 {
		t.Errorf("a slab of ten beside three objects a call, 100 calls: counted %d in all, %d at the slab (want 310, 10)", total, at[0])
	}
}
