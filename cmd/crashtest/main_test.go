package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
)

// CI's pinned invocation, on the one-shard plane junctiond serves, prints
// the ok line it printed when the harness drove the plane in-process: the
// wire adds nothing to what is decided, journaled or recovered, and every
// phase recovers prefix-exactly while both lie phases convict the lying
// disk.  The tap paces a checkpoint by its phases, not its calls, so how
// many writes a snapshot takes moves none of it.
func TestVFSModePinnedSeed(t *testing.T) {
	const want = "crashtest vfs ok: seed=42 crashes=45 mid-checkpoint=27 phases=[sealed:3 temp-created:7 temp-written:3 temp-synced:5 renamed:5 dir-synced:2 covered-removed:2] recovered=752dda00a693333d losses=map[sync-lie:76 syncdir-lie:11 unsynced-loss:1]\n"
	if got := pinnedRun(t); !strings.HasSuffix(got, "\n"+want) {
		t.Fatalf("printed\n%s\nwant the ok line\n%s", got, want)
	}
}

// Strict phase coverage: the pinned run crashes at least once in every
// phase a checkpoint can stand in, so each is a state recovery is proven
// from.
func TestVFSModeCrashesInEveryPhase(t *testing.T) {
	out := pinnedRun(t)
	_, list, ok := strings.Cut(out, " phases=[")
	list, _, ok2 := strings.Cut(list, "]")
	if !ok || !ok2 {
		t.Fatalf("no phases in %q", out)
	}
	counts := strings.Fields(list)
	if len(counts) != int(durable.PhaseOver) {
		t.Fatalf("%d phases in %q, want %d", len(counts), list, durable.PhaseOver)
	}
	for i, c := range counts {
		name, n, _ := strings.Cut(c, ":")
		if ph := durable.Phase(i); name != ph.String() || n == "0" {
			t.Errorf("%q: no crash found a checkpoint in phase %s", list, ph)
		}
	}
}

// pinnedRun runs CI's pinned invocation and returns what it printed.
func pinnedRun(t *testing.T) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "vfs", "-seed", "42", "-iters", "15", "-ops", "120"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	return out.String()
}

// The same loop, grow ops and capacity oracle included, must pass on the
// one-shard plane junctiond serves at a seed other than the pinned one and
// still convict both lies.
func TestVFSModeOneShard(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "vfs", "-seed", "1999", "-iters", "15", "-ops", "120"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, lie := range []string{"sync-lie:", "syncdir-lie:"} {
		if !strings.Contains(out.String(), lie) {
			t.Fatalf("no %s losses in %q", lie, out.String())
		}
	}
}

// The soak is bounded by cycles, not by a clock, so a run is a pure
// function of its seed: two runs print the same thing, cycle by cycle.
func TestSoakModeIsItsSeed(t *testing.T) {
	var first string
	for round := 0; round < 2; round++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-mode", "soak", "-seed", "7", "-iters", "3", "-ops", "150"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		}
		if round == 0 {
			first = out.String()
			if !strings.Contains(first, "cycle 1 ok") || !strings.Contains(first, "crashtest soak ok") {
				t.Fatalf("no crash cycle in %q", first)
			}
		} else if out.String() != first {
			t.Fatalf("the second run printed\n%s\nthe first\n%s", out.String(), first)
		}
	}
}

// One caller's run is a pure function of its seed although the plane
// checkpoints on a goroutine of its own: the tap paces that goroutine's
// filesystem calls between the caller's ops, so the LSN every recovery comes
// back to (the ok line digests them) and every loss count repeat — and some
// crashes do find a checkpoint part done.
func TestVFSModeOneCallerIsItsSeed(t *testing.T) {
	for _, seed := range []string{"42", "1999"} {
		var first string
		for round := 0; round < 3; round++ {
			var out, errb bytes.Buffer
			if code := run([]string{"-mode", "vfs", "-seed", seed, "-iters", "10", "-ops", "120"}, &out, &errb); code != 0 {
				t.Fatalf("seed %s: exit %d\nstdout: %s\nstderr: %s", seed, code, out.String(), errb.String())
			}
			if round == 0 {
				first = out.String()
				if strings.Contains(first, "mid-checkpoint=0 ") {
					t.Fatalf("seed %s: no crash found a checkpoint under way: %q", seed, first)
				}
			} else if out.String() != first {
				t.Fatalf("seed %s: run %d printed\n%s\nthe first\n%s", seed, round, out.String(), first)
			}
		}
	}
}

// Several callers on one plane, most crashes taken mid-flight at a journal
// write or flush: the order the journal took the decisions in is the order
// the oracle re-drives them in, sync-always still loses no acknowledged
// grant, and both lies are still convicted.  Part of the -race set.
func TestVFSModeConcurrentCallers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "vfs", "-seed", "42", "-iters", "15", "-ops", "120", "-callers", "4"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"callers=4", "sync-lie:", "syncdir-lie:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("no %s in %q", want, out.String())
		}
	}
	if strings.Contains(out.String(), "mid-flight=0 ") {
		t.Fatalf("no crash was taken with callers in flight: %q", out.String())
	}
}

// From one caller's ordered drive the journal is the stream: the records
// read back as the ops that wrote them, and what remains after recovering m
// of them is ops[m:] — the run -callers 1 has always been.
func TestOneCallerJournalIsTheStream(t *testing.T) {
	ops := genOps(200, 5)
	jobs := map[int]core.Job{}
	for _, o := range ops {
		if !o.observe && !o.grow {
			jobs[o.job.ID] = o.job
		}
	}
	tap := newJournalTap(vfs.NewMem())
	p, _, err := openPlane(tap, "wal", durable.StoreOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.hangUp()
	if err := driveBatch(p, ops, remaining(ops, nil, 0), func(int, float64) {}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := decided(tap.journal(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("%d ops wrote %d records", len(ops), len(got))
	}
	for i := range ops {
		if got[i].observe != ops[i].observe || got[i].grow != ops[i].grow || got[i].job.ID != ops[i].job.ID ||
			(ops[i].observe && got[i].now != ops[i].now) {
			t.Fatalf("record %d reads back as %+v, op %d is %+v", i+1, got[i], i, ops[i])
		}
	}
	for _, m := range []int{0, 1, 57, 199, 200} {
		now := 0.0
		for _, o := range ops[:m] {
			now = max(now, o.now)
		}
		rest := remaining(ops, got[:m], now)
		if len(rest) != len(ops)-m || (len(rest) > 0 && rest[0] != m) {
			t.Fatalf("after recovering %d records %d ops remain, from %v; want ops[%d:]", m, len(rest), rest[:min(3, len(rest))], m)
		}
	}
}

// Several runs point -artifact at one file: it is one divergence artifact,
// the header once, then each failure's divergence with its own mode and
// seed.
func TestDivergencesShareOneArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "divergence.jsonl")
	var errb bytes.Buffer
	for _, d := range []divergence{
		{Mode: "vfs", Seed: 42, Phase: "sync-lie", Iteration: 3, CrashOp: 17, Detail: "acked grant lost"},
		{Mode: "soak", Seed: 7, Iteration: 9, Torn: true, Detail: "recovered profile diverged"},
	} {
		if code := failed(path, d, &errb); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	}
	if strings.Contains(errb.String(), "not written") {
		t.Fatal(errb.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []divergence
	if _, err := obs.ReadArtifact(f, obs.ArtifactDivergence, func(_ string, raw []byte) error {
		var d divergence
		err := json.Unmarshal(raw, &d)
		got = append(got, d)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Mode != "vfs" || got[0].Seed != 42 || got[0].CrashOp != 17 ||
		got[1].Mode != "soak" || got[1].Seed != 7 || !got[1].Torn || got[1].When == "" {
		t.Fatalf("read back %+v", got)
	}
}

func TestUnknownModeRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// genOps must be a pure function of the seed, a shorter stream a prefix of
// a longer one (the soak lengthens its stream that way), and each op must
// map onto exactly one WAL record — the property the differential oracle's
// "recovered LSN m = committed op prefix m" equation rests on.
func TestOpsAreDeterministicAndOneToOneWithRecords(t *testing.T) {
	a, b := genOps(300, 5), genOps(1000, 5)
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

	p, _, err := openPlane(vfs.NewMem(), "wal", durable.StoreOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.hangUp()
	if _, err := driveOps(p, a, 0, len(a), nil); err != nil {
		t.Fatal(err)
	}
	if got := p.ExportState().LSN; got != uint64(len(a)) {
		t.Fatalf("%d ops committed %d records; the 1:1 mapping broke", len(a), got)
	}
	if got := p.Procs(); got != procs+grows {
		t.Fatalf("%d procs after %d grows from %d", got, grows, procs)
	}
}

// The oracle itself must fire: corrupt a recovered state and DiffStates
// has to reject it (guards against a vacuous differential).
func TestOracleDetectsTampering(t *testing.T) {
	ops := genOps(120, 9)
	want, err := referenceState(ops, len(ops))
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceState(ops, len(ops))
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
