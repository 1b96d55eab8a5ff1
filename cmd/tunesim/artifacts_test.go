package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// runMain, as the test binary's first argument, makes it run tunesim's main
// on the arguments after it instead of its tests, so
// TestCIArtifactsSayWhatTheySaid drives the command lines CI runs, flags
// and all.
const runMain = "-run-tunesim-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tunesim runs the tunesim command line args in dir and returns what it
// wrote to standard output.
func tunesim(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMain}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tunesim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// digest is the SHA-256 of v's JSON encoding.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCIArtifactsSayWhatTheySaid pins what the three artifacts CI uploads
// say — the flight snapshot's trigger, spans and events, the rejection
// records, the merged ledger — by the digest of the decoded values, not of
// the bytes, so the file format may change and the contents may not.
func TestCIArtifactsSayWhatTheySaid(t *testing.T) {
	dir := t.TempDir()
	tunesim(t, dir, "-jobs", "300", "-slo", "-flight", "flight.jsonl", "fig5a")
	tunesim(t, dir, "-jobs", "2000", "-interval", "12", "-explain", "rejections.jsonl", "point")
	tunesim(t, dir, "-jobs", "1000", "-tenants", "acme,globex,initech", "-classes", "2", "-ledger", "ledger.jsonl", "fig5a")
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	snap, err := slo.DecodeSnapshot(open("flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	flight := struct {
		Kind   slo.TriggerKind
		Trace  uint64
		At     float64
		Note   string
		Spans  []obs.SpanRec
		Events []obs.Event
	}{snap.Kind, snap.Trace, snap.At, snap.Note, snap.Spans, snap.Events}
	var records []forensics.Record
	if _, err := obs.ReadArtifact(open("rejections.jsonl"), obs.ArtifactRejections, func(_ string, raw []byte) error {
		var rec forensics.Record
		err := json.Unmarshal(raw, &rec)
		records = append(records, rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var led ledger.Snapshot
	if _, err := obs.ReadArtifact(open("ledger.jsonl"), obs.ArtifactLedger, func(tag string, raw []byte) error {
		if tag == "ledger" {
			return json.Unmarshal(raw, &led)
		}
		var tot ledger.Totals
		err := json.Unmarshal(raw, &tot)
		led.Totals = append(led.Totals, tot)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		// The flight and ledger digests were taken again when CI's two
		// audits moved from the removed sharded comparison onto fig5a.
		{"flight.jsonl", flight, "1909763568325c0b2fdac1932eb8d951ede880d61a2865b8dfbf0d4134b99eb9"},
		{"rejections.jsonl", records, "3a94f7684034a36eec6c39cdef609167dd0b8fb972da8c13910ed5ea7de92e56"},
		{"ledger.jsonl", &led, "e8cd80a47c450bea3c20020d8dc0f13cb1cf9edbd562da0167f0cfa99c393074"},
	} {
		if got := digest(t, c.v); got != c.want {
			t.Errorf("%s says something else: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSchedulerOutputIsPinned pins what the scheduler decides, by the
// SHA-256 of tunesim's output: every figure and extension (Fig 5a–d, the
// malleable Fig 6a/6b, EXT-Q's tie-breaks, EXT-R, EXT-B, EXT-A), the Gantt
// chart, and one point under the paper's and the first-fit tie-break.  A refactor of the placer must leave them alone.
func TestSchedulerOutputIsPinned(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		// Taken again when all lost the sharded comparison, its last
		// section; every line before it is the same.
		{[]string{"-jobs", "300", "all"}, "9062716497a4eae2906a63a47a5581df5ff3fa1e8d6384bf4b6e3116565e0aa4"},
		{[]string{"-jobs", "300", "gantt"}, "f6eae1c86ac1ef40a59f028d9f50d06cc4ab2e7172c2327e1094456c859aad24"},
		{[]string{"-jobs", "300", "point"}, "cd610b66433e2c2b8636639bdaadf675feb298c0e93bd57984b6821c4274601a"},
		{[]string{"-jobs", "300", "-tiebreak", "firstfit", "point"}, "529641f1ca69f62dd9934973f0c1f7a49347d8bb915a2f866ddef8681c9e70d0"},
	} {
		sum := sha256.Sum256(tunesim(t, dir, c.args...))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("tunesim %v: output digest %s, want %s", c.args, got, c.want)
		}
	}
}
