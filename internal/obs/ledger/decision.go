package ledger

import (
	"milan/internal/qos"
)

// DecisionObserver adapts the ledger to an arbitrator's decision stream
// (qos.ArbitratorConfig.Observer, fed.Config.Observer): each decision — a
// commit, a rejection, a clock advance or a capacity change — lands on the
// ledger, then the chain continues to next (nil is fine).  The arbitrator
// invokes its observer under its lock at the point the mutation is
// committed, so ledger recording happens in commit order — the ordering
// the bit-identity differential test relies on.  (The qos package cannot
// import this one — obs sits above qos — which is why the adapter lives
// here and hooks the observer callback instead.)
func (l *Ledger) DecisionObserver(next func(qos.Decision)) func(qos.Decision) {
	if l == nil {
		return next
	}
	return func(d qos.Decision) {
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
