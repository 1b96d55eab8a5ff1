package durable

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// TestGrantIsSharedReadOnly races the rule a promise's one object lives by
// (qos.GrantBox): the grant a shard returns, the live set's record of it and
// every checkpoint's grant list read the same task array and nobody writes
// it.  Four qosnet callers keep connection goroutines encoding grants while
// a checkpoint every 32 records folds the arrays those grants own; one
// in-process caller holds the shared grants themselves, with a copy of what
// each said when it was returned.  Run under -race, a writer anywhere is a
// report; without it, a changed grant still fails the comparison at the end.
func TestGrantIsSharedReadOnly(t *testing.T) {
	const callers, perCaller = 4, 250
	disk := vfs.NewMem()
	p, _ := openPlane(t, disk, StoreOptions{Sync: syncNever, SnapshotEvery: 32})
	srv, err := qosnet.ListenAndServe(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	type kept struct {
		g    *qos.Grant
		said qos.Grant // g as returned, the tasks copied
	}
	held := make([][]kept, callers+1)
	shared := 0           // in-process grants found in the live set, by the in-process caller
	var next atomic.Int64 // arrivals in one order, whoever carries them
	negotiate := func(c int, n qos.Negotiator, observe func(float64) error) {
		for i := 0; i < perCaller; i++ {
			id := int(next.Add(1))
			// About three of these overlap, 12 of 16 processors; one that
			// another caller's clock report overtakes may be refused.
			job := fig.Job(id, float64(id)*50, workload.Tunable)
			if err := observe(job.Release); err != nil {
				t.Errorf("caller %d: observe: %v", c, err)
				return
			}
			g, err := n.Negotiate(job)
			if errors.Is(err, qos.ErrRejected) {
				continue
			}
			if err != nil {
				t.Errorf("caller %d job %d: %v", c, id, err)
				return
			}
			said := *g
			said.Placement.Tasks = append([]core.TaskPlacement(nil), g.Placement.Tasks...)
			held[c] = append(held[c], kept{g, said})
			if n == qos.Negotiator(p) {
				for _, rec := range p.Grants() { // a few: the live ones
					if rec.JobID != id {
						continue
					}
					if &rec.Tasks[0] != &g.Placement.Tasks[0] {
						t.Errorf("grant %d: the live set keeps a copy of the grant's tasks, not the grant's", id)
					}
					shared++
				}
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		cli, err := qosnet.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			negotiate(c, cli, cli.Observe)
		}(c)
	}
	negotiate(callers, p, func(now float64) error { p.Observe(now); return nil })
	wg.Wait()
	if err := p.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}

	live := p.ExportState()
	byID := make(map[int]GrantRecord, len(live.Grants))
	for _, g := range live.Grants {
		byID[g.JobID] = g
	}
	granted := 0
	for c, ks := range held {
		for _, k := range ks {
			granted++
			if !reflect.DeepEqual(*k.g, k.said) {
				t.Fatalf("caller %d: grant %d changed after it was returned:\nnow  %+v\nsaid %+v", c, k.said.JobID, *k.g, k.said)
			}
			rec, ok := byID[k.said.JobID]
			if !ok {
				continue // elapsed
			}
			if !reflect.DeepEqual(rec.Tasks, k.said.Placement.Tasks) {
				t.Fatalf("caller %d: live set holds %+v for grant %d, the caller was told %+v", c, rec.Tasks, rec.JobID, k.said.Placement.Tasks)
			}
		}
	}
	if granted < callers*perCaller/2 || shared == 0 {
		t.Fatalf("degenerate run: %d granted, %d live grants checked for sharing", granted, shared)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, rec := openPlane(t, disk, StoreOptions{Sync: syncNever, SnapshotEvery: 32})
	defer r.Close()
	if err := DiffStates(&rec.State, &live); err != nil {
		t.Fatalf("recovered state diverged from the live export: %v", err)
	}
}

// TestLongChainGrantOverflowsTheBox: a chosen path with more tasks than a
// qos.GrantBox holds inline gets a task slice of its own on both ends of the
// wire, and nothing else about it differs — it is the grant the reference
// arbitrator makes, it round-trips, it is journaled and it is recovered, task
// for task.
func TestLongChainGrantOverflowsTheBox(t *testing.T) {
	long := func(id int, release float64) core.Job {
		job := core.Job{ID: id, Name: "long", Release: release}
		for _, width := range []int{2, 3} { // two paths, so the record says tunable
			var c core.Chain
			for k := 0; k < 6; k++ {
				c.Tasks = append(c.Tasks, core.Task{Procs: width, Duration: 5, Deadline: release + 100})
			}
			job.Chains = append(job.Chains, c)
		}
		return job
	}
	ref, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk := vfs.NewMem()
	p, _ := openPlane(t, disk, StoreOptions{Sync: SyncAlways})
	srv, err := qosnet.ListenAndServe(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var want []GrantRecord
	for i, n := range []qos.Negotiator{p, cli, p, cli} {
		job := long(i, float64(i)*7) // overlapping: later ones are placed around earlier ones
		wantG, err := ref.Negotiate(job)
		if err != nil {
			t.Fatalf("job %d: reference: %v", i, err)
		}
		g, err := n.Negotiate(job)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if len(g.Placement.Tasks) != 6 || !reflect.DeepEqual(g, wantG) {
			t.Fatalf("job %d:\ngot  %+v\nwant %+v", i, g, wantG)
		}
		want = append(want, GrantRecord{JobID: g.JobID, Chain: g.Chain, Quality: g.Quality, Tunable: true, Tasks: wantG.Placement.Tasks})
	}
	if got := p.Grants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live set\ngot  %+v\nwant %+v", got, want)
	}
	live := p.ExportState()
	crash(t, p, disk)
	r, rec := openPlane(t, disk, StoreOptions{Sync: SyncAlways})
	defer r.Close()
	if err := DiffStates(&rec.State, &live); err != nil {
		t.Fatalf("recovered state diverged from the live export: %v", err)
	}
	if got := r.Grants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered live set\ngot  %+v\nwant %+v", got, want)
	}
}
