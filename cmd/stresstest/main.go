// Command stresstest soaks the durable admission plane: a continuous
// seed-deterministic admission storm with periodic crash/recover cycles,
// bounded by a wall-clock budget.  Unlike cmd/crashtest (which proves
// recovery exactness against a re-driven reference on short runs), the
// soak holds one log lineage open for the whole budget and checks the
// O(1) invariant at every cycle: under SyncAlways the state exported the
// instant before a crash must be bitwise-identical to the state recovered
// after it, and no acknowledged grant may vanish.  Refusals and clock
// reports are acknowledged once written and ride the next grant's flush, so
// a cycle runs on until its last decision is a grant: the crash then finds
// nothing riding.
//
//	stresstest -budget 30s -seed 7 -crash-every 500
//
// exits 0 when the budget drains with every cycle clean, 1 on the first
// divergence.  The chosen seed is always printed so any failure replays.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stresstest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget     = fs.Duration("budget", 30*time.Second, "wall-clock budget; the soak stops at the first cycle boundary past it")
		seed       = fs.Int64("seed", 0, "run seed (0 = derive from the clock; the chosen seed is always printed)")
		crashEvery = fs.Int("crash-every", 400, "ops per crash/recover cycle")
		shards     = fs.Int("shards", 2, "admission-plane shards")
		procs      = fs.Int("procs", 16, "admission-plane processors")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	fmt.Fprintf(stdout, "stresstest seed=%d budget=%s\n", s, *budget)

	cfg := durable.Config{
		FS: nil, Dir: "wal", Procs: *procs, Shards: *shards, ProbeK: 1,
		Store: durable.StoreOptions{Sync: durable.SyncAlways, SnapshotEvery: 128},
	}
	mem := vfs.NewMem()
	cfg.FS = mem
	plane, _, err := durable.OpenPlane(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "stresstest: open: %v\n", err)
		return 2
	}

	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	arr := workload.NewPoisson(6, s)
	now := 0.0
	id := 0
	var ops, admitted, crashes int64
	start := time.Now()

	for time.Since(start) < *budget {
		// One cycle: drive crashEvery ops, then crash and recover.
		acked := make(map[int]float64)
		for i, flushed := 0, false; i < *crashEvery || !flushed; i++ {
			now += arr.Next()
			plane.Observe(now)
			job := tmpl.Job(id, now, workload.Tunable)
			id++
			ops += 2 // observe + decision records
			g, nerr := plane.Negotiate(job)
			flushed = nerr == nil
			switch {
			case nerr == nil:
				admitted++
				acked[job.ID] = g.Finish()
			case errors.Is(nerr, qos.ErrRejected):
			default:
				fmt.Fprintf(stderr, "stresstest: job %d: %v\n", job.ID, nerr)
				return 1
			}
		}

		want := plane.ExportState()
		// A checkpoint's goroutine does not die with the "process".
		if err := plane.WaitCheckpoint(); err != nil {
			fmt.Fprintf(stderr, "stresstest: checkpoint before crash %d: %v\n", crashes+1, err)
			return 1
		}
		mem.Crash()
		crashes++
		p2, rec, err := durable.OpenPlane(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "stresstest: recovery after crash %d: %v\n", crashes, err)
			return 1
		}
		got := p2.ExportState()
		if err := durable.DiffStates(&got, &want); err != nil {
			fmt.Fprintf(stderr, "stresstest: FAIL crash %d (seed %d): recovered state diverged: %v\n",
				crashes, s, err)
			return 1
		}
		have := make(map[int]bool)
		for _, gr := range p2.Grants() {
			have[gr.JobID] = true
		}
		for jid, fin := range acked {
			if fin > p2.Now() && !have[jid] {
				fmt.Fprintf(stderr, "stresstest: FAIL crash %d (seed %d): acked grant %d lost (lsn %d)\n",
					crashes, s, jid, rec.State.LSN)
				return 1
			}
		}
		plane = p2
		fmt.Fprintf(stdout, "cycle %d ok: ops=%d admitted=%d lsn=%d replay=%s\n",
			crashes, ops, admitted, rec.State.LSN, rec.ReplayDuration.Round(time.Microsecond))
	}
	fmt.Fprintf(stdout, "stresstest ok: seed=%d cycles=%d ops=%d admitted=%d in %s\n",
		s, crashes, ops, admitted, time.Since(start).Round(time.Millisecond))
	return 0
}
