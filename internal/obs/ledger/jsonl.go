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
// totals, bucket and aged rows, one JSON object per line — append-
// friendly, greppable, and decodable without loading the whole file.
const (
	kindMeta   = "meta"
	kindTotals = "totals"
	kindBucket = "bucket"
	kindAged   = "aged"
)

type metaRow struct {
	Kind              string  `json:"kind"`
	Version           uint64  `json:"version"`
	Shards            []int   `json:"shards"`
	Now               float64 `json:"now"`
	Origin            float64 `json:"origin"`
	Capacity          int     `json:"capacity"`
	AgedBefore        float64 `json:"aged_before"`
	TotalReservedArea float64 `json:"total_reserved_area"`
	TotalRealizedArea float64 `json:"total_realized_area"`
	Commits           int64   `json:"commits"`
	Completions       int64   `json:"completions"`
	Rejections        int64   `json:"rejections"`
	Downsamples       int64   `json:"downsamples"`
	AgedFolds         int64   `json:"aged_folds"`
}

type totalsRow struct {
	Kind string `json:"kind"`
	Totals
}

type bucketRow struct {
	Kind string `json:"kind"`
	Bucket
}

type agedRow struct {
	Kind  string `json:"kind"`
	Cells []Cell `json:"cells"`
}

// WriteJSONL writes the snapshot as JSON Lines: a meta row, one totals
// row per key, one bucket row per retained bucket, and an aged row when
// anything has aged out.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("ledger: nil snapshot")
	}
	enc := json.NewEncoder(w)
	meta := metaRow{
		Kind:              kindMeta,
		Version:           s.Version,
		Shards:            s.Shards,
		Now:               s.Now,
		Origin:            s.Origin,
		Capacity:          s.Capacity,
		AgedBefore:        s.AgedBefore,
		TotalReservedArea: s.TotalReservedArea,
		TotalRealizedArea: s.TotalRealizedArea,
		Commits:           s.Commits,
		Completions:       s.Completions,
		Rejections:        s.Rejections,
		Downsamples:       s.Downsamples,
		AgedFolds:         s.AgedFolds,
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, t := range s.Totals {
		if err := enc.Encode(totalsRow{Kind: kindTotals, Totals: t}); err != nil {
			return err
		}
	}
	for _, b := range s.Buckets {
		if err := enc.Encode(bucketRow{Kind: kindBucket, Bucket: b}); err != nil {
			return err
		}
	}
	if len(s.Aged) > 0 {
		if err := enc.Encode(agedRow{Kind: kindAged, Cells: s.Aged}); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJSONL reads a snapshot back from its JSON Lines form.  The
// decoder is strict — unknown kinds, rows before the meta line,
// non-finite numbers and malformed buckets are errors, never panics —
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
			var m metaRow
			if err := json.Unmarshal(raw, &m); err != nil {
				return err
			}
			if !finite(m.Now, m.Origin, m.AgedBefore, m.TotalReservedArea, m.TotalRealizedArea) {
				return errors.New("non-finite meta fields")
			}
			out = &Snapshot{
				Version:           m.Version,
				Shards:            m.Shards,
				Now:               m.Now,
				Origin:            m.Origin,
				Capacity:          m.Capacity,
				AgedBefore:        m.AgedBefore,
				TotalReservedArea: m.TotalReservedArea,
				TotalRealizedArea: m.TotalRealizedArea,
				Commits:           m.Commits,
				Completions:       m.Completions,
				Rejections:        m.Rejections,
				Downsamples:       m.Downsamples,
				AgedFolds:         m.AgedFolds,
			}
		case kindTotals:
			var t totalsRow
			if err := json.Unmarshal(raw, &t); err != nil {
				return err
			}
			if !finite(t.ReservedArea, t.RealizedArea) {
				return errors.New("non-finite totals")
			}
			out.Totals = append(out.Totals, t.Totals)
		case kindBucket:
			var b bucketRow
			if err := json.Unmarshal(raw, &b); err != nil {
				return err
			}
			if !finite(b.Start, b.Width, b.CapacityArea) || b.Width <= 0 {
				return fmt.Errorf("malformed bucket span [%v, +%v)", b.Start, b.Width)
			}
			if err := checkCells(b.Cells); err != nil {
				return err
			}
			out.Buckets = append(out.Buckets, b.Bucket)
		case kindAged:
			var a agedRow
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
			if err := checkCells(a.Cells); err != nil {
				return err
			}
			out.Aged = append(out.Aged, a.Cells...)
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

func checkCells(cs []Cell) error {
	for _, c := range cs {
		if !finite(c.ReservedArea, c.RealizedArea) {
			return fmt.Errorf("non-finite cell for tenant %q class %d", c.Tenant, c.Class)
		}
	}
	return nil
}
