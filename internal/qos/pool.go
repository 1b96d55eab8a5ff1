package qos

import (
	"milan/internal/resbroker"
)

// AttachBroker makes the dynamic arbitrator's machine size follow a
// resource broker's pool (resbroker.Broker.Follow): every significant
// registration or deregistration triggers a renegotiation at the
// arbitrator's current time.  Aborted jobs are surfaced through
// d.OnAborted.  The returned stop function detaches the follower.
func AttachBroker(d *DynamicArbitrator, b *resbroker.Broker, threshold int) (stop func()) {
	return b.Follow(d.Procs(), threshold, func(procs int) { _, _ = d.SetCapacity(procs) })
}
