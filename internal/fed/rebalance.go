package fed

import (
	"fmt"

	"milan/internal/resbroker"
)

// Rebalancer migrates whole processors between a plane's shards: it grows
// the hungriest shard (highest cached load) out of the coldest shard's
// uncommitted headroom, one processor per move, and never preempts a
// committed reservation (a shard only shrinks within
// capacity - peak committed usage, enforced by core.Profile.SetCapacity).
// It also follows a resource broker's pool, so machines registered or
// deregistered at the broker grow or shrink the plane's total capacity.
//
// Moves are sequential — shrink the donor, then grow the receiver — so the
// rebalancer never holds two shard locks and cannot deadlock against
// concurrent admissions.  Between the two steps the plane briefly runs one
// processor small, which is safe (admission against a smaller machine is
// only more conservative).
type Rebalancer struct {
	arb *Arbitrator
	// MinShardProcs is the floor below which a shard is never shrunk
	// (default 1: a shard always keeps one processor so it can still
	// admit).
	MinShardProcs int
}

// newRebalancer returns a rebalancer over the plane.
func newRebalancer(a *Arbitrator) *Rebalancer {
	return &Rebalancer{arb: a, MinShardProcs: 1}
}

// Rebalancer returns the plane's lazily-created rebalancer with default
// policy knobs.
func (a *Arbitrator) Rebalancer() *Rebalancer {
	a.rbMu.Lock()
	defer a.rbMu.Unlock()
	if a.rebal == nil {
		a.rebal = newRebalancer(a)
	}
	return a.rebal
}

// shardState is one shard's migration-relevant snapshot.
type shardState struct {
	sh       *shard
	procs    int
	headroom int
	load     float64
}

func (r *Rebalancer) snapshot() []shardState {
	out := make([]shardState, len(r.arb.shards))
	for i, sh := range r.arb.shards {
		out[i] = shardState{
			sh:       sh,
			procs:    sh.Procs(),
			headroom: sh.headroom(),
			load:     sh.load(),
		}
	}
	return out
}

// rebalanceOnce attempts a single one-processor migration from the coldest
// shard with spare headroom to the hungriest shard, reporting whether a
// processor moved.  It returns false when the plane is balanced (the
// hungriest shard is no hungrier than the donor) or no donor can shrink
// without touching a reservation.
func (r *Rebalancer) rebalanceOnce() bool {
	minProcs := r.MinShardProcs
	if minProcs < 1 {
		minProcs = 1
	}
	states := r.snapshot()
	recv := -1
	for i, st := range states {
		if recv < 0 || st.load > states[recv].load {
			recv = i
		}
	}
	donor := -1
	for i, st := range states {
		if i == recv || st.headroom < 1 || st.procs <= minProcs {
			continue
		}
		if donor < 0 || st.load < states[donor].load {
			donor = i
		}
	}
	if recv < 0 || donor < 0 {
		return false
	}
	if states[recv].load <= states[donor].load {
		return false
	}
	// Stability: the move must not leave the donor hungrier than the
	// receiver (load is area per processor, so shrinking raises the
	// donor's signal).  Without this check the router and the rebalancer
	// chase each other — capacity drains monotonically toward whichever
	// shard saw the first arrival.
	if states[donor].procs > 1 {
		donorAfter := states[donor].load * float64(states[donor].procs) / float64(states[donor].procs-1)
		recvAfter := states[recv].load * float64(states[recv].procs) / float64(states[recv].procs+1)
		if donorAfter > recvAfter {
			return false
		}
	}
	// Shrink first; a concurrent admission may have consumed the headroom
	// we saw, in which case the move is abandoned (never preempt).
	if err := states[donor].sh.resize(states[donor].procs - 1); err != nil {
		return false
	}
	if err := states[recv].sh.resize(states[recv].procs + 1); err != nil {
		// Growth cannot fail (capacity only increases); restore on the
		// impossible path anyway so capacity is never lost.
		_ = states[donor].sh.resize(states[donor].procs)
		return false
	}
	r.arb.migrations.Add(1)
	return true
}

// Rebalance performs up to maxMoves migrations (len(shards) when
// maxMoves <= 0), returning how many processors moved.
func (r *Rebalancer) Rebalance(maxMoves int) int {
	if maxMoves <= 0 {
		maxMoves = len(r.arb.shards)
	}
	moved := 0
	for moved < maxMoves && r.rebalanceOnce() {
		moved++
	}
	return moved
}

// SetTotalCapacity grows or shrinks the plane toward total processors,
// one processor at a time: growth lands on the hungriest shard, shrink
// comes out of the coldest shard's headroom.  Shrink stops early when no
// shard can give up a processor without preempting a reservation; the
// achieved total is returned alongside an error describing the shortfall.
func (r *Rebalancer) SetTotalCapacity(total int) (int, error) {
	minProcs := r.MinShardProcs
	if minProcs < 1 {
		minProcs = 1
	}
	if total < minProcs*len(r.arb.shards) {
		return r.arb.Procs(), fmt.Errorf("fed: total capacity %d below floor %d (%d shards x %d)",
			total, minProcs*len(r.arb.shards), len(r.arb.shards), minProcs)
	}
	cur := r.arb.Procs()
	for cur < total {
		states := r.snapshot()
		recv := 0
		for i, st := range states {
			if st.load > states[recv].load {
				recv = i
			}
		}
		if err := states[recv].sh.resize(states[recv].procs + 1); err != nil {
			return cur, err
		}
		r.arb.migrations.Add(1)
		cur++
	}
	for cur > total {
		states := r.snapshot()
		donor := -1
		for i, st := range states {
			if st.headroom < 1 || st.procs <= minProcs {
				continue
			}
			if donor < 0 || st.load < states[donor].load {
				donor = i
			}
		}
		if donor < 0 {
			return cur, fmt.Errorf("fed: cannot shrink below %d procs without preempting reservations (target %d)", cur, total)
		}
		if err := states[donor].sh.resize(states[donor].procs - 1); err != nil {
			// Headroom raced away between snapshot and resize; re-snapshot.
			continue
		}
		r.arb.migrations.Add(1)
		cur--
	}
	return cur, nil
}

// AttachBroker makes the plane's total capacity follow a resource
// broker's pool (resbroker.Broker.Follow): every significant machine
// registration or deregistration resizes the plane to the broker's total
// and runs a rebalancing pass.  The returned stop function detaches the
// follower.
func (r *Rebalancer) AttachBroker(b *resbroker.Broker, threshold int) (stop func()) {
	return b.Follow(r.arb.Procs(), threshold, func(procs int) {
		_, _ = r.SetTotalCapacity(procs)
		r.Rebalance(0)
	})
}
