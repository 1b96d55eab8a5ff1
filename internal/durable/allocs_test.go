package durable

import (
	"errors"
	"testing"

	"milan/internal/allocs"
	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// TestServedAdmissionAllocationBudget is the served path's counted contract,
// layer by layer, over the Figure-4 tunable stream on an in-memory disk,
// counted over whole runs (allocs.Count): what granted admissions allocate
// through the plane alone (a 32nd of an object each: the qos.GrantBox the
// plan is made in, whose task array the journal record and the live set
// read where it is, cut from a slab of 32) and through a whole loopback
// round trip (that, the client's box, cut the same way, and the server
// decoder's chunks), and that a refused one takes no box.  The slabs and
// the chunks are the program's and are pinned exactly, so a layer going
// back to a box per grant, or any change in how boxes and chunks are cut,
// reads as a different count.  Beside them the run grows the in-memory journal file, the
// live set's map and delta, the scheduler's profile and both ends' frame
// buffers, which costs what the Go release's map and append growth decide
// (45 objects in the plane's granted run on go1.24, about 60 on the wire):
// that is only bounded.
func TestServedAdmissionAllocationBudget(t *testing.T) {
	const runs = 512 // every chunk of the decoder is started several times
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	granted := make([]core.Job, runs+1) // allocs.Count warms up with one extra call
	for i := range granted {
		// At most three of these overlap, 12 of 16 processors: all granted.
		granted[i] = fig.Job(i, float64(i)*50, workload.Tunable)
	}
	refused := workload.FigureJob{X: 32, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(-1, 0, workload.Tunable)

	// count negotiates the stream on a fresh plane, directly or through a
	// client served on loopback: the objects allocated, and among them the
	// slabs of boxes and the decoder's chunks.  The plane's journal is
	// written and never flushed: the in-memory disk's flush copies the
	// file, which is the fake's cost and not the plane's.
	count := func(wire, wantGrant bool) (total, slabs, chunks uint64) {
		p, _ := openPlane(t, vfs.NewMem(), 1, StoreOptions{Sync: syncNever})
		defer p.Close()
		var n qos.Negotiator = p
		if wire {
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
			n = cli
		}
		next := 0
		total, at := allocs.Count(runs, func() {
			job := refused
			if wantGrant {
				job = granted[next]
				next++
				p.Observe(job.Release)
			}
			if _, err := n.Negotiate(job); wantGrant != (err == nil) || (err != nil && !errors.Is(err, qos.ErrRejected)) {
				t.Fatalf("job %d: %v (want a grant: %v)", job.ID, err, wantGrant)
			}
		}, "milan/internal/qos.(*GrantBoxes).Next", "milan/internal/qos/qosnet.carve", "milan/internal/qos/qosnet.(*carver).name")
		return total, at[0], at[1] + at[2]
	}
	// The warm-up's grant starts the first slab, and every 32nd grant after
	// it another.  The decoder's 45 are 32 job chunks, each the chains and
	// tasks of 16 Figure-4 jobs, and 13 chunks of names.
	const slabs, chunks = runs / 32, 45
	for _, tc := range []struct {
		name            string
		wire, wantGrant bool
		slabs, chunks   uint64 // exactly
	}{
		{"plane/granted", false, true, slabs, 0},
		{"plane/rejected", false, false, 0, 0},
		{"round-trip/granted", true, true, 2 * slabs, chunks}, // the client's slab beside the shard's
		{"round-trip/rejected", true, false, 0, chunks},
	} {
		total, gotSlabs, gotChunks := count(tc.wire, tc.wantGrant)
		// Growth: fewer than one object per four admissions.
		if growth := total - gotSlabs - gotChunks; gotSlabs != tc.slabs || gotChunks != tc.chunks || growth >= runs/4 {
			t.Errorf("%s, %d admissions: %d slabs and %d decoder chunks, and %d objects besides; want %d and %d, and fewer than %d",
				tc.name, runs, gotSlabs, gotChunks, growth, tc.slabs, tc.chunks, runs/4)
		}
	}
}

// TestCheckpointAllocationBudget counts what a forced checkpoint allocates
// on an in-memory disk, by site, one granted admission before each.  A
// checkpoint removes by name what it covers — the snapshot it replaced, the
// segment its seal swapped out — and lists no directory, so its removal
// allocates nothing: the one object counted there is the in-memory disk's
// SyncDir copying the snapshot it makes durable, the fake's cost.  That
// site, the seal and the rotation are the program's and pinned exactly;
// the fold and the cut grow a slice or a map, which costs what the Go
// release decides, and the snapshot's publication is bounded.
func TestCheckpointAllocationBudget(t *testing.T) {
	const runs = 64
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	p, _ := openPlane(t, vfs.NewMem(), 1, StoreOptions{Sync: syncNever, SnapshotEvery: 1 << 20})
	defer p.Close()
	next := 0
	sites := []struct {
		name  string
		want  uint64 // per checkpoint
		exact bool
	}{
		{"milan/internal/durable.(*store).removeCovered", 1, true},
		{"milan/internal/durable.(*store).rotate", 7, true},
		{"milan/internal/durable.(*store).seal", 3, true},
		{"milan/internal/durable.(*store).publish", 16, false},
		{"milan/internal/durable.foldGrants", 3, false},
		{"milan/internal/durable.(*Plane).checkpointLocked", 4, false}, // the cut
	}
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.name
	}
	_, at := allocs.Count(runs, func() {
		job := fig.Job(next, float64(next)*50, workload.Tunable)
		next++
		p.Observe(job.Release)
		if _, err := p.Negotiate(job); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}, names...)
	for i, s := range sites {
		bound := "at most"
		if s.exact {
			bound = "exactly"
		}
		if want := s.want * runs; at[i] > want || (s.exact && at[i] != want) {
			t.Errorf("%s: %d objects in %d checkpoints, want %s %d a checkpoint", s.name, at[i], runs, bound, s.want)
		}
	}
}
