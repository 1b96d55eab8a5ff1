package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"

	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/workload"
)

// nodeKillRun storms the WAL-backed durable plane and kills the node
// (vfs crash: every unsynced byte vanishes) three times mid-storm,
// recovering from the log each time.  The invariant is the durability
// contract: under SyncAlways on an honest disk, every grant acknowledged
// before a kill and still pending at recovery must come back as a
// committed grant.  The whole run — arrivals, decisions, kill points,
// recovery — is a pure function of the seed.
//
// With Inject.DroppedFsync the filesystem starts lying about fsync a few
// jobs before each kill, so the acked tail rides on syncs that never
// happened; recovery then comes back short and the run must convict the
// durability layer (TriggerDurabilityLoss -> fault=durability).
func nodeKillRun(cfg Config, sc Scenario, seed int64) (RunReport, error) {
	rr := RunReport{Scenario: sc.Name, Plane: planeDurable, Seed: seed, Jobs: cfg.Jobs}
	digest := fnv.New64a()
	ft := vfs.NewFault(vfs.NewMem())
	open := func() (*durable.Plane, durable.Recovered, error) {
		return durable.OpenPlane(durable.Config{
			FS: ft, Dir: "wal",
			Procs: cfg.Procs,
			Store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 48},
		})
	}
	p, _, err := open()
	if err != nil {
		return rr, err
	}

	kill := cfg.Jobs / 3
	if kill < 10 {
		kill = 10
	}
	const lieWindow = 5 // jobs before each kill with the lying fsync armed

	acked := make(map[int]float64) // jobID -> reserved finish of acked grants
	hash := func(id int, verdict byte, g *qos.Grant) {
		hashUint(digest, uint64(id))
		digest.Write([]byte{verdict})
		hashGrant(digest, g)
	}

	for id, job := range sc.Job.Stream(sc.Arrivals(seed), cfg.Jobs, workload.Tunable) {
		now := job.Release
		if cfg.Inject.DroppedFsync && id%kill == kill-lieWindow {
			ft.SetSyncLie(true)
		}
		p.Observe(now)
		g, nerr := p.Negotiate(job)
		switch {
		case nerr == nil:
			rr.Admitted++
			acked[id] = g.Finish()
			hash(id, 'A', g)
		case errors.Is(nerr, qos.ErrRejected):
			rr.Rejected++
			hash(id, 'R', nil)
		case errors.Is(nerr, qos.ErrShed):
			rr.Shed++
			hash(id, 'S', nil)
		default:
			return rr, fmt.Errorf("node-kill: job %d: %w", id, nerr)
		}

		// A run is replayed by its seed, so nothing in it may be a matter of
		// scheduling: a checkpoint the job's records started is let finish
		// before the next job, the lying disk or the kill.  Which record
		// carries the next seal, what a lie falls on and where a kill finds
		// the checkpoint are then what they were when checkpoints ran inside
		// the sealing call.
		if werr := p.WaitCheckpoint(); werr != nil {
			return rr, fmt.Errorf("node-kill: checkpoint after job %d: %w", id, werr)
		}
		if (id+1)%kill != 0 {
			continue
		}
		// Node kill: everything unsynced vanishes, then the plane recovers
		// from whatever the disk honestly persisted.
		ft.Crash()
		ft.SetSyncLie(false)
		p2, rec, oerr := open()
		if oerr != nil {
			return rr, fmt.Errorf("node-kill: recovery after job %d: %w", id, oerr)
		}
		p = p2
		hashUint(digest, rec.State.LSN)

		// Durability contract: every acked grant still pending at the
		// recovered clock must be in the committed set.  One that ran out
		// by this clock is owed nothing more, whatever a later recovery's
		// clock says.
		lost := rec.State.Lost(acked)
		maps.DeleteFunc(acked, func(_ int, fin float64) bool { return fin <= rec.State.Now })
		if len(lost) > 0 {
			durabilityLoss(&rr, seed, now, fmt.Sprintf(
				"kill after job %d: %d acked grants missing after replay (first %d, recovered lsn %d, torn=%t)",
				id, len(lost), lost[0], rec.State.LSN, rec.Torn))
			for _, jid := range lost {
				delete(acked, jid) // count each loss once
			}
		}
	}
	rr.Digest = digest.Sum64()
	return rr, nil
}

// durabilityLoss records a lost-committed-grant breach with a synthetic
// flight snapshot, so the artifact replays to the durability fault.
func durabilityLoss(rr *RunReport, seed int64, now float64, detail string) {
	snap := &slo.Snapshot{Kind: slo.TriggerDurabilityLoss, At: now, Note: detail}
	b := Breach{
		Scenario:  rr.Scenario,
		Plane:     rr.Plane,
		Invariant: "no-lost-committed-grant",
		Detail:    detail,
		Fault:     slo.Replay(snap).Fault,
	}
	b.Artifact = &Artifact{
		Scenario:  rr.Scenario,
		Plane:     string(rr.Plane),
		Seed:      seed,
		Invariant: b.Invariant,
		Detail:    detail,
		Fault:     b.Fault,
		Snapshot:  snap,
	}
	rr.Breaches = append(rr.Breaches, b)
}
