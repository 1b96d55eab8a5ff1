// Package allocs counts the heap objects a piece of code allocates, and
// where, for the tests that pin allocation budgets: one counting rule for
// all of them.  Only tests import it.
package allocs

import (
	"runtime"
	"runtime/debug"
	"strings"
)

// Count calls fn once to warm up and then runs times, and reports the heap
// objects allocated meanwhile, by any goroutine: in all, and for each of
// sites those whose allocating stack passes through the function of that
// name (a generic function's name matches all its instantiations; an
// allocation counts for the site nearest to it).  Unlike
// testing.AllocsPerRun it divides nothing, so a slab that 32 calls share
// is counted, not rounded away; and it tells the program's own
// allocations, at the sites, from the rest, which holds what the runtime
// charges for growing maps and slices and so differs between Go releases.
// Every allocation is recorded (the memory profile samples at a rate of
// one while it counts) and the collector is off.  What the runtime and
// the standard library allocate for themselves is not counted: on stacks
// with no function of this module's (the scavenger's timers, the unique
// package's cleanup after a collection), and for the caches of type
// assertions and type switches, which the runtime grows at random.
func Count(runs int, fn func(), sites ...string) (total uint64, at []uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	fn()
	before := profile()
	for i := 0; i < runs; i++ {
		fn()
	}
	after := profile()

	at = make([]uint64, len(sites))
	for stack, n := range after {
		if n -= before[stack]; n == 0 {
			continue
		}
		switch site := nearest(stack, sites); site {
		case ignored:
		case none:
			total += uint64(n)
		default:
			total += uint64(n)
			at[site] += uint64(n)
		}
	}
	return total, at
}

const none, ignored = -1, -2

// notCounted are the allocating functions Count leaves out: its own
// snapshot, and the caches the runtime builds for a type assertion or type
// switch on a random one of its misses (cheaprand, runtime/iface.go).
var notCounted = []string{
	"milan/internal/allocs.profile",
	"runtime.buildTypeAssertCache",
	"runtime.buildInterfaceSwitchCache",
}

// nearest returns the index of the site the stack passes through nearest
// to its allocation, none, or ignored.
func nearest(stack [32]uintptr, sites []string) int {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stack[:n])
	ours := false
	for {
		f, more := frames.Next()
		for _, name := range notCounted {
			if f.Function == name {
				return ignored
			}
		}
		for i, site := range sites {
			if f.Function == site || strings.HasPrefix(f.Function, site+"[") {
				return i
			}
		}
		ours = ours || strings.HasPrefix(f.Function, "milan/")
		if !more {
			if !ours {
				return ignored
			}
			return none
		}
	}
}

// profile returns the memory profile as it stands after a collection: the
// objects allocated so far, by stack.
func profile() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	byStack := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		byStack[r.Stack0] += r.AllocObjects
	}
	return byStack
}
