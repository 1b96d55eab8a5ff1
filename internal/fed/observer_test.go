package fed

import (
	"sync"
	"testing"

	"milan/internal/qos"
)

// TestObserverSeesEveryCommitInShardOrder is the ledger differential through
// the one feed, under -race: four goroutines negotiate on four shards, and
// the observer keeps a per-shard running sum
// of the area it saw committed.  The observer runs under the deciding shard's
// lock, in that shard's commit order, so at every event — of any kind — its
// sum must equal that shard's scheduler's own ReservedArea bit for bit (the
// same additions in the same order), raced re-admissions included.  A missed,
// duplicated or reordered announcement fails it; an announcement made
// outside the shard lock is a data race on sums.
func TestObserverSeesEveryCommitInShardOrder(t *testing.T) {
	const shards, callers = 4, 4
	sums := make([]float64, shards) // sums[s] is guarded by shard s's lock
	events := make([][4]int, shards)
	var plane *Arbitrator
	plane, err := New(Config{Procs: 16, Shards: shards, ProbeK: 2, Observer: func(d qos.Decision) {
		if d.Kind == qos.KindAdmitted {
			sums[d.Shard] += d.Grant.Placement.Area()
		}
		events[d.Shard][d.Kind]++
		// The callback may not call back into the plane, but it holds the
		// shard's lock: read the scheduler the way the shard itself does.
		if got := plane.shards[d.Shard].sched.Stats().ReservedArea; got != sums[d.Shard] {
			t.Errorf("shard %d, kind %d: observer has seen %v committed, scheduler reserved %v", d.Shard, d.Kind, sums[d.Shard], got)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, job := range smallStream(150, 8, int64(60+c)) {
				job.ID += c * 1000
				plane.Observe(job.Release)
				_, _ = plane.Negotiate(job)
			}
		}(c)
	}
	wg.Wait()

	var total [4]int
	for s := 0; s < shards; s++ {
		st := plane.shards[s].Stats()
		if st.ReservedArea != sums[s] || events[s][qos.KindAdmitted] != st.Admitted || events[s][qos.KindRejected] != st.Rejected {
			t.Fatalf("shard %d: observed area %v admitted %d rejected %d, scheduler %+v",
				s, sums[s], events[s][qos.KindAdmitted], events[s][qos.KindRejected], st)
		}
		for k, n := range events[s] {
			total[k] += n
		}
	}
	if total[qos.KindAdmitted] == 0 || total[qos.KindRejected] == 0 || total[qos.KindClock] == 0 {
		t.Fatalf("degenerate run: events by kind %v", total)
	}
	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
