package durable

import "milan/internal/obs"

// Metrics is the durability layer's observability surface, resolved once
// against an obs.Registry under the durable_ namespace so the append path
// only touches atomics.
type Metrics struct {
	Appends       *obs.Counter // records written to the log
	Fsyncs        *obs.Counter // log flushes issued: at most one per promise, fewer when callers share one
	AppendLatency *obs.Stat    // seconds per record write; the wait for a flush is not in it

	Snapshots        *obs.Counter // snapshots written (including on open)
	SnapshotBytes    *obs.Gauge   // size of the newest snapshot file
	SnapshotDuration *obs.Stat    // seconds per snapshot compaction

	RecoveryReplay  *obs.Stat    // seconds spent replaying the log at open
	RecoveryRecords *obs.Counter // log records replayed at open
	TornTails       *obs.Counter // recoveries that stopped at a torn tail
	Poisoned        *obs.Gauge   // 1 when the store refused further writes
}

// NewMetrics resolves the durability instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Appends:          reg.Counter("durable_appends"),
		Fsyncs:           reg.Counter("durable_fsyncs"),
		AppendLatency:    reg.Stat("durable_append_seconds"),
		Snapshots:        reg.Counter("durable_snapshots"),
		SnapshotBytes:    reg.Gauge("durable_snapshot_bytes"),
		SnapshotDuration: reg.Stat("durable_snapshot_seconds"),
		RecoveryReplay:   reg.Stat("durable_recovery_replay_seconds"),
		RecoveryRecords:  reg.Counter("durable_recovery_records"),
		TornTails:        reg.Counter("durable_torn_tails"),
		Poisoned:         reg.Gauge("durable_poisoned"),
	}
	reg.Describe("durable_appends", "WAL records written")
	reg.Describe("durable_fsyncs", "WAL flushes issued (at most one per acknowledged promise; callers that queue behind a flush share the next)")
	reg.Describe("durable_append_seconds", "seconds per WAL record write, under the plane lock (the flush a promise waits for is not included)")
	reg.Describe("durable_snapshots", "durable snapshots written (including at open)")
	reg.Describe("durable_snapshot_bytes", "size in bytes of the newest snapshot file")
	reg.Describe("durable_snapshot_seconds", "seconds per snapshot compaction")
	reg.Describe("durable_recovery_replay_seconds", "seconds replaying the WAL at open")
	reg.Describe("durable_recovery_records", "WAL records replayed at open")
	reg.Describe("durable_torn_tails", "recoveries that stopped at a torn or corrupt log tail")
	reg.Describe("durable_poisoned", "1 when the store has refused further writes after an I/O error")
	return m
}
