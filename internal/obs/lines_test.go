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

	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// TestLineDecodersNameTheBadLine runs the four JSONL decoders that share
// obs.Lines over the two ways an artifact on disk goes bad — the writer died
// mid-line, or something that is not an artifact at all was handed in — and
// holds each to the same answer: an error, under the decoder's own prefix,
// that names the line.
func TestLineDecodersNameTheBadLine(t *testing.T) {
	var led bytes.Buffer
	if err := ledger.New(ledger.Config{Capacity: 4}).Snapshot().WriteJSONL(&led); err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name, prefix string
		good         string // a well-formed stream, newline-terminated
		decode       func(t *testing.T, in string) error
	}{
		{"ledger.DecodeJSONL", "ledger: ", led.String(), func(_ *testing.T, in string) error {
			_, err := ledger.DecodeJSONL(strings.NewReader(in))
			return err
		}},
		{"slo.DecodeSnapshot", "slo: snapshot ", `{"v":1,"kind":"deadline-miss","at":3}` + "\n" + `{"event":{"t":1,"type":"committed","job":7}}` + "\n", func(_ *testing.T, in string) error {
			_, err := slo.DecodeSnapshot(strings.NewReader(in))
			return err
		}},
		{"forensics.DecodeJSONL", "forensics: ", `{"seq":1,"at":0,"diag":{}}` + "\n" + `{"seq":2,"at":1,"diag":{}}` + "\n", func(_ *testing.T, in string) error {
			_, err := forensics.DecodeJSONL(strings.NewReader(in))
			return err
		}},
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
		last := d.good[strings.LastIndexByte(d.good[:len(d.good)-1], '\n')+1:]
		for _, bad := range []struct {
			name, tail string
			tooLong    bool
		}{
			{"torn last line", last[:len(last)/2], false},
			{"line over 1 MiB", strings.Repeat("x", obs.MaxLine+1) + "\n", true},
		} {
			t.Run(d.name+"/"+bad.name, func(t *testing.T) {
				if err := d.decode(t, d.good); err != nil {
					t.Fatalf("the well-formed stream does not decode: %v", err)
				}
				err := d.decode(t, d.good+bad.tail)
				if err == nil {
					t.Fatal("decoded without error")
				}
				msg, where := err.Error(), fmt.Sprintf("line %d: ", lines+1)
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
