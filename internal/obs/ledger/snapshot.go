package ledger

import (
	"fmt"
	"io"
	"math"

	"milan/internal/obs"
)

// Totals is the exact per-key accounting state.
type Totals struct {
	Tenant       string  `json:"tenant"`
	Class        int     `json:"class"`
	ReservedArea float64 `json:"reserved_area"`
	RealizedArea float64 `json:"realized_area"`
	Commits      int64   `json:"commits"`
	Completions  int64   `json:"completions"`
	Rejections   int64   `json:"rejections,omitempty"`
}

// Waste returns the key's reserved-but-unrealized area: capacity the
// tenant claimed that no completion has vouched for (in-flight
// reservations count as waste until their completion event lands).
func (t Totals) Waste() float64 { return t.ReservedArea - t.RealizedArea }

// Snapshot is an immutable ledger state: the exact per-key totals and
// their sums.  Snapshots from different nodes merge (Merge).
type Snapshot struct {
	Version  uint64   `json:"version"`
	Now      float64  `json:"now"`
	Capacity int      `json:"capacity"`
	Totals   []Totals `json:"totals,omitempty"`

	TotalReservedArea float64 `json:"total_reserved_area"`
	TotalRealizedArea float64 `json:"total_realized_area"`
	Commits           int64   `json:"commits"`
	Completions       int64   `json:"completions"`
	Rejections        int64   `json:"rejections"`
}

// TotalWasteArea returns the snapshot-wide reserved-but-unrealized area.
func (s *Snapshot) TotalWasteArea() float64 {
	return s.TotalReservedArea - s.TotalRealizedArea
}

// WriteJSONL writes the snapshot as a ledger artifact: the header, one
// ledger line (the snapshot without its totals), then one totals line per
// key, so no line outgrows obs's line bound however many keys there are.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("ledger: nil snapshot")
	}
	aw := obs.NewArtifactWriter(w)
	aw.Header(obs.ArtifactLedger, nil)
	meta := *s
	meta.Totals = nil
	aw.Line("ledger", &meta)
	for i := range s.Totals {
		aw.Line("totals", &s.Totals[i])
	}
	return aw.Flush()
}

// Merge folds another snapshot into a new one: totals and capacities add
// per key, the clock and version take the later of the two.  Neither
// input is mutated.
func (s *Snapshot) Merge(o *Snapshot) *Snapshot {
	if s == nil {
		return o
	}
	if o == nil {
		return s
	}
	return &Snapshot{
		Version:           max(s.Version, o.Version),
		Now:               math.Max(s.Now, o.Now),
		Capacity:          s.Capacity + o.Capacity,
		Totals:            mergeTotals(s.Totals, o.Totals),
		TotalReservedArea: s.TotalReservedArea + o.TotalReservedArea,
		TotalRealizedArea: s.TotalRealizedArea + o.TotalRealizedArea,
		Commits:           s.Commits + o.Commits,
		Completions:       s.Completions + o.Completions,
		Rejections:        s.Rejections + o.Rejections,
	}
}

func mergeTotals(a, b []Totals) []Totals {
	m := make(map[Key]Totals, len(a)+len(b))
	for _, lst := range [][]Totals{a, b} {
		for _, t := range lst {
			k := Key{t.Tenant, t.Class}
			cur := m[k]
			cur.Tenant, cur.Class = t.Tenant, t.Class
			cur.ReservedArea += t.ReservedArea
			cur.RealizedArea += t.RealizedArea
			cur.Commits += t.Commits
			cur.Completions += t.Completions
			cur.Rejections += t.Rejections
			m[k] = cur
		}
	}
	out := make([]Totals, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sortTotals(out)
	return out
}

// fairShare is one tenant's share of the reserved pool.
type fairShare struct {
	Tenant string  `json:"tenant"`
	Class  int     `json:"class"`
	Share  float64 `json:"share"` // fraction of all reserved area
	Ratio  float64 `json:"ratio"` // share × number of keys: 1 = exactly fair
}

// fairShares derives each key's share of the total reserved area and
// its ratio against an equal split.
func (s *Snapshot) fairShares() []fairShare {
	if len(s.Totals) == 0 || s.TotalReservedArea <= 0 {
		return nil
	}
	n := float64(len(s.Totals))
	out := make([]fairShare, 0, len(s.Totals))
	for _, t := range s.Totals {
		share := t.ReservedArea / s.TotalReservedArea
		out = append(out, fairShare{Tenant: t.Tenant, Class: t.Class, Share: share, Ratio: share * n})
	}
	return out
}
