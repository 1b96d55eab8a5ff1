// Package proftest is the differential test harness for the processor-time
// profile: it drives identical randomized operation sequences through two
// core.Profile instances — one carrying the segment-tree index, one on the
// linear reference path — and asserts exact agreement on every query and
// every piece of observable state.  A scheduler that is fast but wrong is
// worthless; this harness is what lets the indexed path be the default.
//
// The harness has three layers:
//
//	Op / RandomOps / DecodeOps — an operation vocabulary (reserve, trim,
//	probe, capacity steps) with generators for seeded
//	random streams and for byte-decoded
//	fuzzing inputs, including sub-epsilon time jitter to stress the
//	Eps-tolerant boundary predicates.
//
//	Harness.Diff — replays a sequence against the indexed/linear pair and
//	returns the index of the first divergent operation.
//
//	Harness.Shrink — on failure, truncates to the smallest failing prefix
//	and then greedily drops earlier operations while the divergence
//	reproduces, yielding a minimal replayable counterexample.
package proftest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"milan/internal/core"
)

// OpKind enumerates the operations the harness can replay.
type OpKind uint8

const (
	// OpReserve calls Reserve(Procs, A, A+B) on both profiles and
	// compares success/failure.
	OpReserve OpKind = iota
	// OpReserveFit finds EarliestFit(Procs, B, A, +inf), compares the
	// slots, and commits the reservation on both profiles.  This is the
	// scheduler's actual allocation pattern and keeps the profiles densely
	// populated.
	OpReserveFit
	// OpTrim calls TrimBefore(A) on both profiles.
	OpTrim
	// OpMinAvail compares MinAvailOn(A, A+B).
	OpMinAvail
	// OpEarliestFit compares EarliestFit(Procs, B, A, C).
	OpEarliestFit
	// OpHoles compares the full MaximalHoles(A) enumeration element-wise.
	OpHoles
	// OpBusy compares BusyUpTo(A) and BusyOn(A, A+B).
	OpBusy
	// OpSetCapacity resizes both profiles to Procs + floor(B/5) processors
	// (shrink-or-grow capacity steps, as a broker-following plane makes
	// them) and compares success/failure.
	// Shrinking below committed peak usage must fail identically on both.
	OpSetCapacity

	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpReserve:
		return "Reserve"
	case OpReserveFit:
		return "ReserveFit"
	case OpTrim:
		return "Trim"
	case OpMinAvail:
		return "MinAvail"
	case OpEarliestFit:
		return "EarliestFit"
	case OpHoles:
		return "Holes"
	case OpBusy:
		return "Busy"
	case OpSetCapacity:
		return "SetCapacity"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one replayable operation.  The meaning of Procs/A/B/C depends on
// Kind (see the OpKind constants).
type Op struct {
	Kind  OpKind
	Procs int
	A     float64 // start / trim point / window start
	B     float64 // duration / window length
	C     float64 // deadline (EarliestFit, Holes)
}

func (o Op) String() string {
	return fmt.Sprintf("{%s procs=%d A=%.12g B=%.12g C=%.12g}", o.Kind, o.Procs, o.A, o.B, o.C)
}

// jitterEps is the sub-tolerance perturbation applied to generated times to
// stress the Eps boundary predicates (well below core's 1e-9 tolerance so
// jittered times still dedup against their base breakpoints).
const jitterEps = 4e-10

// RandomOps returns n operations drawn from rng for a machine of the given
// capacity.  Roughly half the stream mutates (fit-then-reserve, raw
// reserves, trims); the rest probes.  A tenth of all times carry sub-epsilon
// jitter.
func RandomOps(rng *rand.Rand, n, capacity int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var op Op
		op.Procs = 1 + rng.Intn(capacity)
		op.A = rng.Float64() * 150
		op.B = 0.05 + rng.Float64()*25
		switch r := rng.Float64(); {
		case r < 0.30:
			op.Kind = OpReserveFit
		case r < 0.45:
			op.Kind = OpReserve
		case r < 0.55:
			op.Kind = OpTrim
		case r < 0.58:
			op.Kind = OpSetCapacity
		case r < 0.70:
			op.Kind = OpMinAvail
		case r < 0.85:
			op.Kind = OpEarliestFit
		case r < 0.95:
			op.Kind = OpHoles
		default:
			op.Kind = OpBusy
		}
		op.C = op.A + op.B + rng.Float64()*60
		if rng.Intn(4) == 0 {
			op.C = math.Inf(1)
		}
		if rng.Intn(10) == 0 {
			op.A += (rng.Float64()*2 - 1) * jitterEps
		}
		if rng.Intn(10) == 0 {
			op.B += rng.Float64() * jitterEps
		}
		ops = append(ops, op)
	}
	return ops
}

// opBytes is the encoded size of one operation in a fuzz input.
const opBytes = 7

// DecodeOps decodes a fuzzer-controlled byte stream into operations: 7
// bytes per op (kind+jitter flags, procs, 2-byte start, 1-byte duration,
// 2-byte deadline offset).  Trailing partial records are dropped.  The
// encoding is total — every byte string is a valid op sequence — so the
// fuzzer explores the full operation space without a rejection loop.
func DecodeOps(data []byte, capacity int) []Op {
	ops := make([]Op, 0, len(data)/opBytes)
	for len(data) >= opBytes {
		b := data[:opBytes]
		data = data[opBytes:]
		op := Op{
			Kind:  OpKind(b[0] & 0x07 % uint8(numOpKinds)),
			Procs: 1 + int(b[1])%capacity,
		}
		op.A = float64(uint16(b[2])<<8|uint16(b[3])) / 65535 * 150
		op.B = 0.05 + float64(b[4])/255*25
		dl := uint16(b[5])<<8 | uint16(b[6])
		if dl == 65535 {
			op.C = math.Inf(1)
		} else {
			op.C = op.A + op.B + float64(dl)/65535*60
		}
		if b[0]&0x08 != 0 {
			op.A += jitterEps
		}
		if b[0]&0x10 != 0 {
			op.A -= jitterEps
		}
		if b[0]&0x20 != 0 {
			op.B += jitterEps
		}
		ops = append(ops, op)
	}
	return ops
}

// Harness replays operation sequences against an indexed/linear profile
// pair.
type Harness struct {
	// Capacity is the machine size of both profiles.
	Capacity int
	// corrupt, when non-nil, mutates the pair after the numbered
	// operation.  Test-only fault injection so the shrinker itself can be
	// exercised against a reproducible divergence.
	corrupt func(i int, indexed, linear *core.Profile)
}

// Diff replays ops against a fresh indexed/linear pair and returns the
// index of the first operation whose outcome (query answer, mutation
// success, or resulting profile state) diverges, with a description.  It
// returns (-1, "") when the whole sequence agrees.
func (h Harness) Diff(ops []Op) (int, string) {
	pi := core.NewProfile(h.Capacity, 0)
	pi.EnableIndex()
	pl := core.NewProfile(h.Capacity, 0)
	for i, op := range ops {
		if desc := applyBoth(pi, pl, op); desc != "" {
			return i, desc
		}
		if h.corrupt != nil {
			h.corrupt(i, pi, pl)
		}
		if desc := compareState(pi, pl); desc != "" {
			return i, desc
		}
	}
	return -1, ""
}

// applyBoth executes one operation on both profiles and compares the
// directly observable outcome.  It returns a non-empty description on
// divergence.
func applyBoth(pi, pl *core.Profile, op Op) string {
	switch op.Kind {
	case OpReserve:
		ei := pi.Reserve(op.Procs, op.A, op.A+op.B)
		el := pl.Reserve(op.Procs, op.A, op.A+op.B)
		if (ei == nil) != (el == nil) {
			return fmt.Sprintf("Reserve: indexed err=%v, linear err=%v", ei, el)
		}
	case OpReserveFit:
		si, oki := pi.EarliestFit(op.Procs, op.B, op.A, math.Inf(1))
		sl, okl := pl.EarliestFit(op.Procs, op.B, op.A, math.Inf(1))
		if oki != okl || si != sl {
			return fmt.Sprintf("ReserveFit probe: indexed (%.17g,%v), linear (%.17g,%v)", si, oki, sl, okl)
		}
		if oki {
			ei := pi.Reserve(op.Procs, si, si+op.B)
			el := pl.Reserve(op.Procs, sl, sl+op.B)
			if (ei == nil) != (el == nil) {
				return fmt.Sprintf("ReserveFit commit: indexed err=%v, linear err=%v", ei, el)
			}
		}
	case OpTrim:
		pi.TrimBefore(op.A)
		pl.TrimBefore(op.A)
	case OpMinAvail:
		mi := pi.MinAvailOn(op.A, op.A+op.B)
		ml := pl.MinAvailOn(op.A, op.A+op.B)
		if mi != ml {
			return fmt.Sprintf("MinAvailOn(%.17g,%.17g): indexed %d, linear %d", op.A, op.A+op.B, mi, ml)
		}
	case OpEarliestFit:
		si, oki := pi.EarliestFit(op.Procs, op.B, op.A, op.C)
		sl, okl := pl.EarliestFit(op.Procs, op.B, op.A, op.C)
		if oki != okl || si != sl {
			return fmt.Sprintf("EarliestFit(%d,%.17g,%.17g,%.17g): indexed (%.17g,%v), linear (%.17g,%v)",
				op.Procs, op.B, op.A, op.C, si, oki, sl, okl)
		}
	case OpHoles:
		hi := pi.MaximalHoles(op.A)
		hl := pl.MaximalHoles(op.A)
		if desc := compareHoles(hi, hl); desc != "" {
			return fmt.Sprintf("MaximalHoles(%.17g): %s", op.A, desc)
		}
	case OpBusy:
		bi, bl := pi.BusyUpTo(op.A), pl.BusyUpTo(op.A)
		if bi != bl {
			return fmt.Sprintf("BusyUpTo(%.17g): indexed %.17g, linear %.17g", op.A, bi, bl)
		}
		oi, ol := pi.BusyOn(op.A, op.A+op.B), pl.BusyOn(op.A, op.A+op.B)
		if oi != ol {
			return fmt.Sprintf("BusyOn: indexed %.17g, linear %.17g", oi, ol)
		}
	case OpSetCapacity:
		newCap := op.Procs + int(op.B/5)
		ei := pi.SetCapacity(newCap)
		el := pl.SetCapacity(newCap)
		if (ei == nil) != (el == nil) {
			return fmt.Sprintf("SetCapacity(%d): indexed err=%v, linear err=%v", newCap, ei, el)
		}
	}
	return ""
}

// compareState checks both profiles' invariants and their full observable
// state (segment structure via String, segment count, last breakpoint).
func compareState(pi, pl *core.Profile) string {
	if err := pi.CheckInvariants(); err != nil {
		return fmt.Sprintf("indexed invariants: %v", err)
	}
	if err := pl.CheckInvariants(); err != nil {
		return fmt.Sprintf("linear invariants: %v", err)
	}
	if pi.Segments() != pl.Segments() {
		return fmt.Sprintf("segment count: indexed %d, linear %d", pi.Segments(), pl.Segments())
	}
	if pi.LastBreak() != pl.LastBreak() {
		return fmt.Sprintf("last break: indexed %.17g, linear %.17g", pi.LastBreak(), pl.LastBreak())
	}
	if si, sl := pi.String(), pl.String(); si != sl {
		return fmt.Sprintf("state: indexed %s, linear %s", si, sl)
	}
	return ""
}

// compareHoles compares two hole enumerations for exact equality.
func compareHoles(a, b []core.Hole) string {
	if len(a) != len(b) {
		return fmt.Sprintf("count: indexed %d, linear %d", len(a), len(b))
	}
	for i := range a {
		sameEnd := a[i].End == b[i].End || (math.IsInf(a[i].End, 1) && math.IsInf(b[i].End, 1))
		if a[i].Start != b[i].Start || !sameEnd || a[i].Procs != b[i].Procs {
			return fmt.Sprintf("hole %d: indexed %+v, linear %+v", i, a[i], b[i])
		}
	}
	return ""
}

// Shrink reduces a failing sequence to a minimal reproduction: first the
// smallest failing prefix (replay up to and including the first divergent
// operation), then repeated greedy passes dropping any earlier operation
// whose removal preserves the divergence.  It returns the reduced sequence
// and the divergence description, or nil when ops does not fail at all.
func (h Harness) Shrink(ops []Op) ([]Op, string) {
	k, desc := h.Diff(ops)
	if k < 0 {
		return nil, ""
	}
	ops = append([]Op(nil), ops[:k+1]...) // smallest failing prefix
	for {
		shrunk := false
		for i := 0; i < len(ops)-1; i++ {
			cand := make([]Op, 0, len(ops)-1)
			cand = append(cand, ops[:i]...)
			cand = append(cand, ops[i+1:]...)
			if j, d := h.Diff(cand); j >= 0 {
				ops = cand[:j+1]
				desc = d
				shrunk = true
				break
			}
		}
		if !shrunk {
			return ops, desc
		}
	}
}

// Check replays ops and fails tb with a shrunken, replayable
// counterexample on any divergence.
func Check(tb testing.TB, capacity int, ops []Op) {
	tb.Helper()
	h := Harness{Capacity: capacity}
	if k, desc := h.Diff(ops); k >= 0 {
		small, sdesc := h.Shrink(ops)
		var b strings.Builder
		fmt.Fprintf(&b, "indexed/linear profile divergence at op %d (capacity %d): %s\n", k, capacity, desc)
		fmt.Fprintf(&b, "shrunk to %d ops: %s\nreplay:\n", len(small), sdesc)
		for _, op := range small {
			fmt.Fprintf(&b, "  %s\n", op)
		}
		tb.Fatal(b.String())
	}
}
