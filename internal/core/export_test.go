package core

// IndexEnabled reports whether the profile carries a segment-tree index.
func (p *Profile) IndexEnabled() bool { return p.idx != nil }

// TieBreakPaper names the paper's rule, the zero TieBreak, for the
// external tests.
const TieBreakPaper = tieBreakPaper

// checkInvariants panics if the profile's invariants are violated.
func (p *Profile) checkInvariants() {
	if err := p.CheckInvariants(); err != nil {
		panic(err.Error())
	}
}
