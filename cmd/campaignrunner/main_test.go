package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"milan/internal/campaign"
)

// TestCampaignTableIsPinned pins what run prints, byte for byte, for three
// invocations: the default matrix, a shorter one, and a fault the harness
// must catch (exit 1).  Any change to a scenario, a seed derivation, a
// decision or the table's format moves a digest.
func TestCampaignTableIsPinned(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		sha256 string
	}{
		// Taken again when the node-kill row left the matrix for crashtest;
		// every other row is the same.
		{[]string{"-seed", "1999"}, 0, "bccb7df240b7f5a7ebe2e20dee31596d132011a25e59f475eddfe3e7a0c8f99c"},
		{[]string{"-seed", "1999", "-jobs", "150"}, 0, "526543133d4126316d88ac9dba9ae16bf40dd0fabefe3cd1a515e44b910c07e1"},
		{[]string{"-seed", "1999", "-inject", "shedder-bypass"}, 1, "19a42d7e42cea0737d40242d7183e445ff37d7c56d8088c043d07a432f1d0e6c"},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out, os.Stderr); code != tc.code {
			t.Errorf("%v exited %d, want %d:\n%s", tc.args, code, tc.code, out.String())
			continue
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%v printed a table with sha256 %s, want %s:\n%s", tc.args, got, tc.sha256, out.String())
		}
	}
}

// A fixed seed must reproduce the identical event sequence: every printed
// line — digests, decision counts, verdicts — byte for byte.
func TestFixedSeedReproducesOutput(t *testing.T) {
	args := []string{"-seed", "42", "-jobs", "120"}
	var a, b bytes.Buffer
	if code := run(args, &a, os.Stderr); code != 0 {
		t.Fatalf("first run exited %d:\n%s", code, a.String())
	}
	if code := run(args, &b, os.Stderr); code != 0 {
		t.Fatalf("second run exited %d:\n%s", code, b.String())
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different output:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "campaign seed=42") {
		t.Fatalf("seed not printed:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "ok: no invariant breaches") {
		t.Fatalf("benign matrix not breach-free:\n%s", a.String())
	}
}

// An injected over-admission must fail the run, persist a replayable
// artifact, and that artifact alone must localize the fault to the
// planner.
func TestInjectedFaultYieldsReplayableArtifact(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	code := run([]string{
		"-seed", "7", "-jobs", "60",
		"-scenario", "arrival-storm",
		"-inject", "over-admission",
		"-artifacts", dir,
	}, &out, os.Stderr)
	if code != 1 {
		t.Fatalf("injected fault exited %d, want 1:\n%s", code, out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifacts written (err=%v):\n%s", err, out.String())
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := campaign.DecodeArtifact(f)
	if err != nil {
		t.Fatalf("artifact %s does not decode: %v", files[0], err)
	}
	if a.Seed == 0 || a.Scenario != "arrival-storm" {
		t.Fatalf("artifact lost its replay identity: %+v", a)
	}
	if v := campaign.ReplayArtifact(a); v.Fault != "planner" {
		t.Fatalf("artifact replays to fault %q, want %q (reason %q)", v.Fault, "planner", v.Reason)
	}
}

func TestListAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, os.Stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, sc := range campaign.Matrix() {
		if !strings.Contains(out.String(), sc.Name) {
			t.Errorf("-list missing scenario %s:\n%s", sc.Name, out.String())
		}
	}
	var discard bytes.Buffer
	if code := run([]string{"-inject", "nope"}, &discard, &discard); code != 2 {
		t.Fatalf("bad -inject exited %d, want 2", code)
	}
	if code := run([]string{"-scenario", "no-such"}, &discard, &discard); code != 2 {
		t.Fatalf("bad -scenario exited %d, want 2", code)
	}
}
