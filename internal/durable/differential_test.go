package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/workload"
)

// planeBytesDigest is the SHA-256 over every file name and every file byte
// the fixed stream of TestOneShardPlaneIsTheMonolith leaves in the log
// directory, folded at two points: before the forced snapshot (the log of
// the first half) and at the end (the snapshot plus the log of the second
// half).  It was first taken at the commit that still wrapped a
// qos.Arbitrator at one shard (cec7b1f), and taken again when the log went
// to format version 2, which drops the shard index from records, grants
// and snapshots: the files of both versions, each read by its own
// decoders, then held equal records and snapshot states, field for field
// but the dropped ones.  Whatever decides behind the plane must keep
// writing these bytes.
const planeBytesDigest = "71460492faaa24209f8123a09d1b1dd4b0d8cecda2e60686fb7b63e927468df9"

// foldDir hashes the directory's file names and contents, in name order.
func foldDir(t *testing.T, h io.Writer, fs vfs.FS, dir string) {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		f, err := fs.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, name)
		if _, err := io.Copy(h, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// TestOneShardPlaneIsTheMonolith is the contract the one-plane design
// keeps: journaling changes no decision.  A 1-shard durable plane fed a
// fixed overloaded Figure-4 stream — admissions, rejections, clock
// advances, completions and one forced snapshot — returns the grants and
// the counters a bare qos.Arbitrator returns, ends in its scheduler state
// bit for bit, and writes exactly the journal and snapshot bytes recorded
// in planeBytesDigest.
func TestOneShardPlaneIsTheMonolith(t *testing.T) {
	fig := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	jobs := fig.Stream(workload.NewPoisson(3, 1999), 400, workload.Tunable)
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, StoreOptions{SnapshotEvery: 1 << 20})
	defer p.Close()
	ref, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	admitted, rejected, completed := 0, 0, 0
	for i, job := range jobs {
		p.Observe(job.Release)
		ref.Observe(job.Release)
		g, err := p.Negotiate(job)
		rg, rerr := ref.Negotiate(job)
		if !errors.Is(err, rerr) || !reflect.DeepEqual(g, rg) {
			t.Fatalf("job %d: plane answered (%+v, %v), arbitrator (%+v, %v)", job.ID, g, err, rg, rerr)
		}
		switch {
		case err != nil:
			rejected++
		default:
			admitted++
			if admitted%3 == 0 {
				// Completed early, while the reservation is still live.
				if err := p.JobCompleted(g.JobID, job.Release); err != nil {
					t.Fatal(err)
				}
				completed++
			}
		}
		if i == len(jobs)/2 {
			foldDir(t, h, mem, "log")
			if err := p.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if admitted == 0 || rejected == 0 || completed == 0 {
		t.Fatalf("stream must admit, reject and complete: %d/%d/%d", admitted, rejected, completed)
	}
	if got, want := p.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("plane stats %+v, arbitrator stats %+v", got, want)
	}
	st, refSt := p.ExportState(), ref.ExportState()
	want := State{LSN: st.LSN, Now: refSt.Now, Sched: refSt.Sched, Grants: st.Grants}
	if err := DiffStates(&st, &want); err != nil {
		t.Fatalf("durable plane diverged from plain arbitrator: %v", err)
	}
	foldDir(t, h, mem, "log")
	if got := hex.EncodeToString(h.Sum(nil)); got != planeBytesDigest {
		t.Fatalf("journal+snapshot bytes digest %s, want %s", got, planeBytesDigest)
	}
}
