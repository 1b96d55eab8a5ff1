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
		p, _ := openPlane(t, vfs.NewMem(), StoreOptions{Sync: syncNever})
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
		}, "milan/internal/qos.(*GrantBoxes).Next", "milan/internal/qos/qosnet.carve")
		return total, at[0], at[1]
	}
	// The warm-up's grant starts the first slab, and every 32nd grant after
	// it another.  The decoder's 32 are job chunks, each the chains, tasks
	// and own names of 16 Figure-4 jobs (the warm-up's request interned the
	// chain names, into a chunk of kept names of their own).
	const slabs, chunks = runs / 32, 32
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
// on an in-memory disk, by site, one granted admission before each, once the
// live set and the buffers the store keeps between checkpoints have reached
// their steady size.  The program's sites are pinned exactly: the seal's
// checkpoint record, and one path string each for the segment rotate opens
// and the snapshot publish writes; the cut, the fold, the encoding and the
// removal reuse what the checkpoint before left and allocate nothing.  What
// the in-memory disk allocates for itself is its own site, and not pinned.
func TestCheckpointAllocationBudget(t *testing.T) {
	const runs = 64
	program := []site{
		{"milan/internal/durable.(*store).seal", 1},
		{"milan/internal/durable.(*store).rotate", 1},
		{"milan/internal/durable.(*Plane).checkpointLocked", 0}, // the cut
		{"milan/internal/durable.(*fold).grants", 0},
		{"milan/internal/durable.(*store).publish", 1},
		{"milan/internal/durable.(*store).removeCovered", 0},
	}
	fake := []string{
		"milan/internal/durable/vfs.(*Mem).Create",
		"milan/internal/durable/vfs.(*memFile).Write",
		"milan/internal/durable/vfs.(*memFile).Sync",
		"milan/internal/durable/vfs.(*memFile).Close",
		"milan/internal/durable/vfs.(*Mem).Rename",
		"milan/internal/durable/vfs.(*Mem).Remove",
		"milan/internal/durable/vfs.(*Mem).SyncDir",
	}
	at := checkpointAllocs(t, vfs.NewMem(), "log", runs, program, fake)
	for i, s := range program {
		if at[i] != s.want*runs {
			t.Errorf("%s: %d objects in %d checkpoints, want exactly %d a checkpoint", s.name, at[i], runs, s.want)
		}
	}
}

// TestCheckpointAllocationBudgetOnDisk is the same count on the file system
// the benchmark and junctiond run on, vfs.OS in a temporary directory: the
// program's sites at the same exact pins; every call that reaches the kernel
// (the two creates, the calls on a file, the rename, the two removes and the
// two directory syncs) at none, for they open a bare descriptor and hand
// their paths to the kernel from the stack; and the whole checkpoint at no
// more than 3 objects, the program's own.
func TestCheckpointAllocationBudgetOnDisk(t *testing.T) {
	const runs, whole = 64, 3
	program := []site{
		{"milan/internal/durable.(*store).seal", 1},
		{"milan/internal/durable.(*store).rotate", 1},
		{"milan/internal/durable.(*Plane).checkpointLocked", 0},
		{"milan/internal/durable.(*fold).grants", 0},
		{"milan/internal/durable.(*store).publish", 1},
		{"milan/internal/durable.(*store).removeCovered", 0},
		{"milan/internal/durable/vfs.OS.Create", 0},
		{"milan/internal/durable/vfs.osFile.Write", 0},
		{"milan/internal/durable/vfs.osFile.Sync", 0},
		{"milan/internal/durable/vfs.osFile.Close", 0},
		{"milan/internal/durable/vfs.OS.Rename", 0},
		{"milan/internal/durable/vfs.OS.Remove", 0},
		{"milan/internal/durable/vfs.OS.SyncDir", 0},
	}
	at := checkpointAllocs(t, vfs.OS{}, t.TempDir(), runs, program, nil)
	var sum uint64
	for i, n := range at {
		sum += n
		if s := program[i]; n != s.want*runs {
			t.Errorf("%s: %d objects in %d checkpoints, want exactly %d a checkpoint", s.name, n, runs, s.want)
		}
	}
	t.Logf("a checkpoint: %.2f objects", float64(sum)/runs)
	if sum > whole*runs {
		t.Errorf("a checkpoint on disk allocates %.2f objects, want at most %d", float64(sum)/runs, whole)
	}
}

// site is a function whose allocations a budget pins, per checkpoint.
type site struct {
	name string
	want uint64
}

// checkpointAllocs forces runs checkpoints of a plane on fs in dir, one
// granted admission before each, and counts what they allocate at the
// program's sites and at others, in that order.  Sixteen checkpoints go
// before the count: by then the live set holds as many grants as it ever
// will, and the cut's, the fold's and the encoding's buffers are as large.
func checkpointAllocs(t *testing.T, fs vfs.FS, dir string, runs int, program []site, others []string) []uint64 {
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	p, _, err := OpenPlane(Config{
		FS: fs, Dir: dir, Procs: 16,
		Store: StoreOptions{Sync: syncNever, SnapshotEvery: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	next := 0
	checkpoint := func() {
		job := fig.Job(next, float64(next)*50, workload.Tunable)
		next++
		p.Observe(job.Release)
		if _, err := p.Negotiate(job); err != nil {
			t.Fatalf("job %d: %v", job.ID, err)
		}
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		checkpoint()
	}
	names := make([]string, 0, len(program)+len(others))
	for _, s := range program {
		names = append(names, s.name)
	}
	_, at := allocs.Count(runs, checkpoint, append(names, others...)...)
	return at
}
