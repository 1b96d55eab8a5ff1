package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"milan/internal/durable"
	"milan/internal/durable/vfs"
)

// The vfs crash loop must pass on a pinned seed: every phase recovers
// prefix-exactly and both lie phases convict the lying disk.
func TestVFSModePinnedSeed(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "vfs", "-seed", "42", "-iters", "10", "-ops", "90"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "crashtest vfs ok") {
		t.Fatalf("no ok line in %q", out.String())
	}
}

// One shard is the plane junctiond serves: the same loop, grow ops and
// capacity oracle included, must pass there and still convict both lies.
func TestVFSModeOneShard(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "vfs", "-seed", "42", "-iters", "15", "-ops", "120", "-shards", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, lie := range []string{"sync-lie:", "syncdir-lie:"} {
		if !strings.Contains(out.String(), lie) {
			t.Fatalf("no %s losses in %q", lie, out.String())
		}
	}
}

func TestUnknownModeRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// genOps must be a pure function of the seed, and each op must map onto
// exactly one WAL record — the property the differential oracle's
// "recovered LSN m = committed op prefix m" equation rests on.
func TestOpsAreDeterministicAndOneToOneWithRecords(t *testing.T) {
	a, b := genOps(300, 5), genOps(300, 5)
	grows := 0
	for i := range a {
		if a[i].observe != b[i].observe || a[i].grow != b[i].grow || a[i].now != b[i].now || a[i].job.ID != b[i].job.ID {
			t.Fatalf("op %d drifted between generations", i)
		}
		if a[i].grow {
			grows++
		}
	}
	if grows == 0 {
		t.Fatal("op stream emitted no capacity grows; KindCapacity recovery is untested")
	}

	for _, shards := range []int{1, 2} {
		p, _, err := openPlane(vfs.NewMem(), "wal", planeCfg{procs: 16, shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := driveOps(p, a, 0, len(a), nil); err != nil {
			t.Fatal(err)
		}
		if got := p.DurableLSN(); got != uint64(len(a)) {
			t.Fatalf("shards=%d: %d ops committed %d records; the 1:1 mapping broke", shards, len(a), got)
		}
		if got := p.Procs(); got != 16+grows {
			t.Fatalf("shards=%d: %d procs after %d grows from 16", shards, got, grows)
		}
	}
}

// The oracle itself must fire: corrupt a recovered state and DiffStates
// has to reject it (guards against a vacuous differential).
func TestOracleDetectsTampering(t *testing.T) {
	ops := genOps(120, 9)
	cfg := planeCfg{procs: 16, shards: 2}
	want, err := referenceState(ops, len(ops), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceState(ops, len(ops), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.DiffStates(&got, &want); err != nil {
		t.Fatalf("identical drives diverged: %v", err)
	}
	got.Now = math.Nextafter(got.Now, math.Inf(1))
	if err := durable.DiffStates(&got, &want); err == nil {
		t.Fatal("oracle accepted a one-ulp clock tamper")
	}
}
