package ledger

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"milan/internal/core"
)

// activeLedger builds a ledger with multi-key activity — commits,
// completions, a rejection and a moved clock — so round-trip tests cover
// the meta row and a totals row per key.
func activeLedger() *Ledger {
	l := New(Config{Capacity: 8, Shard: 3})
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
	l.RecordRejection(&core.Job{Tenant: "acme"})
	return l
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
	got, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\nstream:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
}

func TestDecodeJSONLErrors(t *testing.T) {
	cases := map[string]string{
		"empty stream":    "",
		"row before meta": `{"kind":"totals","tenant":"a"}`,
		"duplicate meta": `{"kind":"meta"}
{"kind":"meta"}`,
		"unknown kind": `{"kind":"meta"}
{"kind":"mystery"}`,
		"bad json":       `{"kind":`,
		"totals in meta": `{"kind":"meta","totals":[]}`,
		"bucket row": `{"kind":"meta"}
{"kind":"bucket","start":0,"width":50}`,
	}
	for name, in := range cases {
		if _, err := DecodeJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestDecodeJSONLToleratesBlankLines(t *testing.T) {
	in := "{\"kind\":\"meta\",\"capacity\":4}\n\n{\"kind\":\"totals\",\"tenant\":\"a\",\"reserved_area\":5}\n"
	s, err := DecodeJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity != 4 || len(s.Totals) != 1 || s.Totals[0].ReservedArea != 5 {
		t.Fatalf("decoded %+v", s)
	}
}

// FuzzLedgerDecode asserts the decoder never panics and that anything it
// accepts re-encodes and re-decodes to the same snapshot (a lossless
// fixed point).
func FuzzLedgerDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := activeLedger().Snapshot().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(`{"kind":"meta"}`)
	f.Add("{\"kind\":\"meta\",\"capacity\":4}\n{\"kind\":\"totals\",\"tenant\":\"a\",\"class\":-1,\"reserved_area\":3}")
	f.Add(`{"kind":"meta","totals":[{"tenant":"a"}]}`)
	f.Add(`{"kind":"totals"}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := DecodeJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.WriteJSONL(&out); err != nil {
			t.Fatalf("accepted snapshot failed to encode: %v", err)
		}
		s2, err := DecodeJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(s2), normalize(s)) {
			t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", s2, s)
		}
	})
}

// normalize strips representation-only differences the encoder
// legitimately introduces (nil vs empty slices survive JSON
// differently depending on omitempty).
func normalize(s *Snapshot) *Snapshot {
	c := *s
	if len(c.Shards) == 0 {
		c.Shards = nil
	}
	if len(c.Totals) == 0 {
		c.Totals = nil
	}
	return &c
}
