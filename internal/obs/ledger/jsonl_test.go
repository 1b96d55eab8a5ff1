package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
)

// activeLedger builds a ledger with multi-key activity — commits,
// completions, a rejection and a moved clock — so round-trip tests cover
// the meta row and a totals row per key.
func activeLedger() *Ledger {
	l := New(Config{Capacity: 8})
	a, b := Key{Tenant: "acme"}, Key{Tenant: `quo"ted`, Class: 2}
	for i := 0; i < 40; i++ {
		pl := mkPl(float64(i*5), 8, 1+i%3)
		k := a
		if i%2 == 1 {
			k = b
		}
		l.RecordCommitKeyed(k, pl)
		if i%3 == 0 {
			l.RecordCompletion(k, pl)
		}
		l.Advance(float64(i * 5))
	}
	l.recordRejection(&core.Job{Tenant: "acme"})
	return l
}

// decode reads a ledger artifact back through obs.ReadArtifact: one
// ledger line, then the totals lines.
func decode(r io.Reader) (*Snapshot, error) {
	var s *Snapshot
	_, err := obs.ReadArtifact(r, obs.ArtifactLedger, func(tag string, raw []byte) error {
		switch {
		case tag == "ledger" && s == nil:
			s = new(Snapshot)
			return json.Unmarshal(raw, s)
		case tag == "totals" && s != nil:
			var t Totals
			if err := json.Unmarshal(raw, &t); err != nil {
				return err
			}
			s.Totals = append(s.Totals, t)
			return nil
		}
		return fmt.Errorf("a %s line out of place", tag)
	})
	if err == nil && s == nil {
		err = errors.New("no ledger line")
	}
	return s, err
}

func TestJSONLRoundTrip(t *testing.T) {
	s := activeLedger().Snapshot()
	if len(s.Totals) != 2 || s.Rejections != 1 || s.Now == 0 {
		t.Fatalf("fixture lacks a key, the rejection or the clock: %+v", s)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\nstream:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2+len(s.Totals) {
		t.Errorf("%d lines, want the header, the ledger line and one totals line per key:\n%s", n, buf.String())
	}
}

// TestDecodeJSONLErrors feeds the reader what a ledger artifact must not
// be: no header, a meta row or a bucket line (tags a ledger artifact does
// not have), a torn or two-key line, totals that are not one row.
func TestDecodeJSONLErrors(t *testing.T) {
	const header = `{"format":"milan-artifact","v":1,"kind":"ledger"}` + "\n"
	cases := map[string]string{
		"empty stream":     "",
		"no header":        `{"ledger":{}}`,
		"old meta row":     `{"kind":"meta"}`,
		"meta row":         header + `{"kind":"meta"}`,
		"bucket line":      header + `{"ledger":{}}` + "\n" + `{"bucket":{"start":0,"width":50}}`,
		"bad json":         header + `{"ledger":`,
		"two keys":         header + `{"ledger":{},"totals":{}}`,
		"totals not a row": header + `{"ledger":{}}` + "\n" + `{"totals":[]}`,
	}
	for name, in := range cases {
		if _, err := decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestDecodeJSONLToleratesBlankLines(t *testing.T) {
	in := `{"format":"milan-artifact","v":1,"kind":"ledger"}` + "\n\n" +
		`{"ledger":{"capacity":4}}` + "\n\n" + `{"totals":{"tenant":"a","reserved_area":5}}` + "\n"
	s, err := decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity != 4 || len(s.Totals) != 1 || s.Totals[0].ReservedArea != 5 {
		t.Fatalf("decoded %+v", s)
	}
}
