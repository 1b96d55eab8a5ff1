package durable

import "milan/internal/obs"

// Metrics is the durability layer's observability surface, resolved once
// against an obs.Registry under the durable_ namespace so the append path
// only touches atomics.
type Metrics struct {
	Appends       *obs.Counter // records written to the log
	Fsyncs        *obs.Counter // log flushes issued: at most one per promise, fewer when callers share one
	AppendLatency *obs.Hist    // each record write; the wait for a flush is not in it

	Snapshots        *obs.Counter // snapshots written (including on open)
	SnapshotBytes    *obs.Gauge   // size of the newest snapshot file
	SnapshotDuration *obs.Hist    // each snapshot compaction

	RecoveryReplay  *obs.Hist    // the log replay at open
	RecoveryRecords *obs.Counter // log records replayed at open
	TornTails       *obs.Counter // recoveries that stopped at a torn tail or skipped a snapshot
	Poisoned        *obs.Gauge   // 1 when the store refused further writes
}

// NewMetrics resolves the durability instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends:          reg.Counter("durable_appends"),
		Fsyncs:           reg.Counter("durable_fsyncs"),
		AppendLatency:    reg.Histogram("durable_append_ns"),
		Snapshots:        reg.Counter("durable_snapshots"),
		SnapshotBytes:    reg.Gauge("durable_snapshot_bytes"),
		SnapshotDuration: reg.Histogram("durable_snapshot_ns"),
		RecoveryReplay:   reg.Histogram("durable_recovery_replay_ns"),
		RecoveryRecords:  reg.Counter("durable_recovery_records"),
		TornTails:        reg.Counter("durable_torn_tails"),
		Poisoned:         reg.Gauge("durable_poisoned"),
	}
}
