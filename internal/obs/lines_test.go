package obs_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"milan/internal/campaign"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// TestLineDecodersNameTheBadLine runs every artifact kind, through its
// typed decoder where it has one and through obs.ReadArtifact where it has
// none, and the bench trajectory's decoder, over the ways a line-oriented
// file goes bad — the writer died mid-line (in the header or in the last
// line), or something that is not an artifact at all was handed in — and
// holds each to the same answer: an error, under the reader's own prefix,
// that names the line.
func TestLineDecodersNameTheBadLine(t *testing.T) {
	const (
		trigger = `{"trigger":{"kind":"deadline-miss","at":3}}` + "\n"
		event   = `{"event":{"t":1,"type":"committed","job":7}}` + "\n"
	)
	header := func(kind string) string {
		return fmt.Sprintf(`{"format":"milan-artifact","v":1,"kind":%q}`, kind) + "\n"
	}
	readArtifact := func(kind string) func(*testing.T, string) error {
		return func(_ *testing.T, in string) error {
			_, err := obs.ReadArtifact(strings.NewReader(in), kind, func(string, []byte) error { return nil })
			return err
		}
	}
	var led bytes.Buffer
	if err := ledger.New(ledger.Config{Capacity: 4}).Snapshot().WriteJSONL(&led); err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name, prefix string
		good         string // a well-formed stream, newline-terminated
		decode       func(t *testing.T, in string) error
	}{
		{"obs.ReadArtifact(ledger)", "ledger artifact ", led.String(), readArtifact(obs.ArtifactLedger)},
		{"slo.DecodeSnapshot", "flight artifact ", header("flight") + trigger + event, func(_ *testing.T, in string) error {
			_, err := slo.DecodeSnapshot(strings.NewReader(in))
			return err
		}},
		{"obs.ReadArtifact(rejections)", "rejections artifact ", header("rejections") + `{"record":{"seq":1,"at":0,"diag":{}}}` + "\n" + `{"record":{"seq":2,"at":1,"diag":{}}}` + "\n", readArtifact(obs.ArtifactRejections)},
		{"campaign.DecodeArtifact", "breach artifact ", `{"format":"milan-artifact","v":1,"kind":"breach","seed":7}` + "\n" + `{"breach":{"scenario":"s","plane":"shards=1","invariant":"i"}}` + "\n" + trigger + event, func(_ *testing.T, in string) error {
			_, err := campaign.DecodeArtifact(strings.NewReader(in))
			return err
		}},
		{"obs.ReadArtifact(divergence)", "divergence artifact ", header("divergence") + `{"divergence":{"mode":"vfs","seed":42,"detail":"lost"}}` + "\n" + `{"divergence":{"mode":"soak","seed":7,"detail":"lost"}}` + "\n", readArtifact(obs.ArtifactDivergence)},
		{"latency.EnvelopeFromTrajectory", "latency: trajectory ", `{"name":"BenchmarkX","ns_per_op":100,"allocs_per_op":1,"note":"n"}` + "\n" + `{"name":"BenchmarkX","ns_per_op":90,"p99_ns_per_op":400}` + "\n", func(t *testing.T, in string) error {
			path := filepath.Join(t.TempDir(), "trajectory.jsonl")
			if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := latency.EnvelopeFromTrajectory(path, "BenchmarkX", 1)
			return err
		}},
	}
	for _, d := range decoders {
		lines := strings.Count(d.good, "\n")
		first := d.good[:strings.IndexByte(d.good, '\n')]
		last := d.good[strings.LastIndexByte(d.good[:len(d.good)-1], '\n')+1:]
		for _, bad := range []struct {
			name, in string
			line     int
			tooLong  bool
		}{
			{"torn first line", first[:len(first)/2], 1, false},
			{"torn last line", d.good + last[:len(last)/2], lines + 1, false},
			{"line over 1 MiB", d.good + strings.Repeat("x", obs.MaxLine+1) + "\n", lines + 1, true},
		} {
			t.Run(d.name+"/"+bad.name, func(t *testing.T) {
				if err := d.decode(t, d.good); err != nil {
					t.Fatalf("the well-formed stream does not decode: %v", err)
				}
				err := d.decode(t, bad.in)
				if err == nil {
					t.Fatal("decoded without error")
				}
				msg, where := err.Error(), fmt.Sprintf("line %d: ", bad.line)
				if !strings.HasPrefix(msg, d.prefix) || !strings.Contains(msg, where) {
					t.Fatalf("error %q: want prefix %q and %q", msg, d.prefix, where)
				}
				if errors.Is(err, bufio.ErrTooLong) != bad.tooLong {
					t.Fatalf("error %q: is bufio.ErrTooLong = %v, want %v", msg, !bad.tooLong, bad.tooLong)
				}
			})
		}
	}
}
