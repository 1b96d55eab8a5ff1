package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"milan/internal/obs"
)

// JSONL row kinds.  A stream is one meta row followed by any number of
// totals rows, one JSON object per line — append-friendly, greppable,
// and decodable without loading the whole file.
const (
	kindMeta   = "meta"
	kindTotals = "totals"
)

// metaRow is the snapshot minus its per-key totals, which follow it as
// totals rows.
type metaRow struct {
	Kind string `json:"kind"`
	*Snapshot
}

type totalsRow struct {
	Kind string `json:"kind"`
	Totals
}

// WriteJSONL writes the snapshot as JSON Lines: a meta row, then one
// totals row per key.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("ledger: nil snapshot")
	}
	enc := json.NewEncoder(w)
	meta := *s
	meta.Totals = nil
	if err := enc.Encode(metaRow{Kind: kindMeta, Snapshot: &meta}); err != nil {
		return err
	}
	for _, t := range s.Totals {
		if err := enc.Encode(totalsRow{Kind: kindTotals, Totals: t}); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJSONL reads a snapshot back from its JSON Lines form.  The
// decoder is strict — unknown kinds, rows before the meta line, totals
// inside the meta line and non-finite numbers are errors, never panics —
// because it is fuzzed (FuzzLedgerDecode) and fed from artifacts that
// may be truncated or hand-edited.
func DecodeJSONL(r io.Reader) (*Snapshot, error) {
	var out *Snapshot
	err := obs.Lines(r, "ledger:", func(raw []byte) error {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return err
		}
		if probe.Kind != kindMeta && out == nil {
			return fmt.Errorf("%q row before meta", probe.Kind)
		}
		switch probe.Kind {
		case kindMeta:
			if out != nil {
				return errors.New("duplicate meta row")
			}
			m := metaRow{Snapshot: &Snapshot{}}
			if err := json.Unmarshal(raw, &m); err != nil {
				return err
			}
			if m.Totals != nil {
				return errors.New("totals inside the meta row")
			}
			if !finite(m.Now, m.TotalReservedArea, m.TotalRealizedArea) {
				return errors.New("non-finite meta fields")
			}
			out = m.Snapshot
		case kindTotals:
			var t totalsRow
			if err := json.Unmarshal(raw, &t); err != nil {
				return err
			}
			if !finite(t.ReservedArea, t.RealizedArea) {
				return errors.New("non-finite totals")
			}
			out.Totals = append(out.Totals, t.Totals)
		default:
			return fmt.Errorf("unknown row kind %q", probe.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("ledger: empty stream (no meta row)")
	}
	return out, nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
