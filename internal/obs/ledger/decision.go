package ledger

import (
	"milan/internal/qos"
)

// DecisionObserver adapts the ledger to an arbitrator's decision stream
// (qos.ArbitratorConfig.Observer, fed.Config.Observer): each decision
// lands on the ledger of the shard that made it — a commit, a rejection,
// a clock advance or a capacity change — then the chain continues to next
// (nil is fine).  The arbitrator invokes its observer under the deciding
// lock at the point the mutation is committed, so ledger recording happens
// in commit order — the ordering the bit-identity differential test relies
// on.  A monolith decides everything on shard 0.  (The qos package cannot
// import this one — obs sits above qos — which is why the adapter lives
// here and hooks the observer callback instead.)
func (s *Sharded) DecisionObserver(next func(qos.Decision)) func(qos.Decision) {
	if s == nil {
		return next
	}
	return func(d qos.Decision) {
		l := s.Shard(d.Shard)
		switch d.Kind {
		case qos.KindAdmitted:
			l.recordCommit(&d.Job, &d.Grant.Placement)
		case qos.KindRejected:
			l.recordRejection(&d.Job)
		case qos.KindClock:
			l.Advance(d.Now)
		case qos.KindResize:
			l.SetCapacity(d.Procs)
		}
		if next != nil {
			next(d)
		}
	}
}
