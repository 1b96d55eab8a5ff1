package ledger

// Sharded is a plane-wide ledger: one Ledger per admission shard, each
// mutated under its own shard's lock, merged lock-free on read.  A
// 1-shard Sharded serves the monolithic arbitrator.
type Sharded struct {
	leds []*Ledger
}

// NewSharded builds n shard ledgers from the same configuration
// (shard i stamped with Shard = i).  Per-shard capacity is stamped by
// whoever partitions the pool (fed.New calls SetCapacity per shard),
// so cfg.Capacity is normally left zero here.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{leds: make([]*Ledger, n)}
	for i := range s.leds {
		c := cfg
		c.Shard = i
		s.leds[i] = New(c)
	}
	return s
}

// Shards returns the number of shard ledgers.
func (s *Sharded) Shards() int {
	if s == nil {
		return 0
	}
	return len(s.leds)
}

// Shard returns the i-th shard ledger (nil when out of range or s is
// nil, so fed wiring stays nil-safe).
func (s *Sharded) Shard(i int) *Ledger {
	if s == nil || i < 0 || i >= len(s.leds) {
		return nil
	}
	return s.leds[i]
}

// Advance moves every shard ledger's clock forward.
func (s *Sharded) Advance(now float64) {
	if s == nil {
		return
	}
	for _, l := range s.leds {
		l.Advance(now)
	}
}

// Merged returns the plane-wide snapshot: the lock-free merge of every
// shard's cached snapshot.
func (s *Sharded) Merged() *Snapshot {
	if s == nil {
		return nil
	}
	var out *Snapshot
	for _, l := range s.leds {
		out = out.Merge(l.Snapshot())
	}
	return out
}
