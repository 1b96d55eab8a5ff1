package ledger

import (
	"sync"
	"testing"
)

// TestConcurrentShardsMergeOracle hammers independent ledgers — one per
// node of a cluster — from one goroutine each, with concurrent readers
// merging their snapshots (Snapshot.Merge, the cluster view's path), and
// checks the final merge against a sequential oracle fed the same events.
// Exact totals are order-independent (each ledger's recording is
// serialized by its own mutex, and merge adds), so the oracle must match
// exactly.  Run with -race to exercise the snapshot cache and the
// lock-free merge path.
func TestConcurrentShardsMergeOracle(t *testing.T) {
	const shards = 4
	const events = 400
	cfg := Config{Capacity: 8}
	leds := make([]*Ledger, shards)
	for i := range leds {
		leds[i] = New(cfg)
	}
	merged := func() *Snapshot {
		var m *Snapshot
		for _, l := range leds {
			m = m.Merge(l.Snapshot())
		}
		return m
	}
	oracle := New(cfg)

	type event struct {
		key      Key
		start    float64
		dur      float64
		procs    int
		complete bool
	}
	keys := []Key{{Tenant: "a"}, {Tenant: "b"}, {Tenant: "a", Class: 1}}
	plans := make([][]event, shards)
	for i := range plans {
		for j := 0; j < events; j++ {
			plans[i] = append(plans[i], event{
				key:      keys[(i+j)%len(keys)],
				start:    float64(j) * 3,
				dur:      5 + float64((i*7+j)%11),
				procs:    1 + (i+j)%3,
				complete: j%2 == 0,
			})
		}
	}

	// Sequential oracle over all shards' events.
	for _, plan := range plans {
		for _, e := range plan {
			pl := mkPl(e.start, e.dur, e.procs)
			oracle.RecordCommitKeyed(e.key, pl)
			if e.complete {
				oracle.RecordCompletion(e.key, pl)
			}
		}
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent merged readers: exercise Snapshot caching + Merge while
	// the ledgers mutate.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if m := merged(); m != nil {
						_ = m.fairShares()
					}
				}
			}
		}()
	}
	for i := 0; i < shards; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			led := leds[i]
			for j, e := range plans[i] {
				pl := mkPl(e.start, e.dur, e.procs)
				led.RecordCommitKeyed(e.key, pl)
				if e.complete {
					led.RecordCompletion(e.key, pl)
				}
				if j%50 == 0 {
					led.Advance(e.start)
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	m := merged()
	om := oracle.Snapshot()
	if m.TotalReservedArea != om.TotalReservedArea {
		t.Errorf("merged reserved = %v, oracle = %v", m.TotalReservedArea, om.TotalReservedArea)
	}
	if m.TotalRealizedArea != om.TotalRealizedArea {
		t.Errorf("merged realized = %v, oracle = %v", m.TotalRealizedArea, om.TotalRealizedArea)
	}
	if m.Commits != om.Commits || m.Completions != om.Completions {
		t.Errorf("merged counts commits/completions = %d/%d, oracle %d/%d",
			m.Commits, m.Completions, om.Commits, om.Completions)
	}
	if len(m.Totals) != len(om.Totals) {
		t.Fatalf("merged has %d keys, oracle %d", len(m.Totals), len(om.Totals))
	}
	for i := range m.Totals {
		got, want := m.Totals[i], om.Totals[i]
		if got.Tenant != want.Tenant || got.Class != want.Class ||
			got.ReservedArea != want.ReservedArea || got.RealizedArea != want.RealizedArea ||
			got.Commits != want.Commits || got.Completions != want.Completions {
			t.Errorf("key %d: merged %+v != oracle %+v", i, got, want)
		}
	}
}
