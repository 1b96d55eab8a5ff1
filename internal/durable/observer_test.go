package durable

import (
	"reflect"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/qos"
	"milan/internal/resbroker"
)

// walRecords reads the records in dir that follow the newest snapshot (all of
// them, from LSN 1, while there is none), without touching the directory.
func walRecords(t *testing.T, fs vfs.FS) (after uint64, recs []Record) {
	t.Helper()
	genesis, err := genesis(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, _, recs, torn, err := (&store{fs: fs, dir: "log"}).load(genesis)
	if err != nil || torn {
		t.Fatalf("read the journal back: torn=%v err=%v", torn, err)
	}
	return base.LSN, recs
}

// TestObserverStreamIsTheJournal: what the arbitrator announces to its one
// observer is, kind for kind and field for field, what the plane journals.
// An overloaded Figure-4 stream with completions, broker-driven capacity
// changes and a forced snapshot in the middle runs through a durable plane
// while a tap in front of the plane's own observer collects every decision;
// the log read back must match 1:1, in order: admissions, rejections, clock
// advances and resizes.  Completions are no mutation of the arbitrator, and
// a snapshot is no decision: neither reaches the observer.
func TestObserverStreamIsTheJournal(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		mem := vfs.NewMem()
		var seen []qos.Decision
		p, _, err := openTapped(Config{
			FS: mem, Dir: "log", Procs: 16,
			Store: StoreOptions{SnapshotEvery: 1 << 20}, // only the forced one
		}, func(d qos.Decision) { seen = append(seen, d) })
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		broker := resbroker.New(nil)
		if err := broker.Register(resbroker.Resource{ID: "seed", Procs: 16, Speed: 1}); err != nil {
			t.Fatal(err)
		}
		defer p.AttachBroker(broker, 0)()

		// half drives its jobs, completing every third grant and
		// registering one more machine midway.
		half := func(jobs []core.Job, machine string) {
			t.Helper()
			for n, job := range jobs {
				p.Observe(job.Release)
				if g, err := p.Negotiate(job); err == nil && n%3 == 0 {
					if err := p.JobCompleted(g.JobID, job.Release); err != nil {
						t.Fatal(err)
					}
				}
				if n == len(jobs)/2 {
					if err := broker.Register(resbroker.Resource{ID: machine, Procs: 4, Speed: 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		jobs := planeStream(160, 17)

		half(jobs[:80], "m0")
		from, recs := walRecords(t, mem)
		if from != 0 {
			t.Fatalf("a snapshot at LSN %d before the forced one", from)
		}
		announced := len(seen)
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != announced {
			t.Fatalf("a snapshot announced %d decisions", len(seen)-announced)
		}
		half(jobs[80:], "m1")
		from, tail := walRecords(t, mem)
		if from != uint64(len(recs)) {
			t.Fatalf("forced snapshot at LSN %d, %d records were written before it", from, len(recs))
		}
		recs = append(recs, tail...)

		// Both streams as comparable events.
		type event struct {
			kind  qos.DecisionKind
			job   int
			chain int
			tasks []core.TaskPlacement
			now   float64
			procs int
		}
		var got, want []event
		for _, d := range seen {
			switch d.Kind {
			case qos.KindAdmitted:
				got = append(got, event{kind: d.Kind, job: d.Grant.JobID, chain: d.Grant.Chain, tasks: d.Grant.Placement.Tasks})
			case qos.KindRejected:
				got = append(got, event{kind: d.Kind, job: d.Job.ID})
			case qos.KindClock:
				got = append(got, event{kind: d.Kind, now: d.Now})
			case qos.KindResize:
				got = append(got, event{kind: d.Kind, procs: d.Procs})
			default:
				t.Fatalf("decision of unknown kind %d", d.Kind)
			}
		}
		counts := map[Kind]int{}
		for i, r := range recs {
			if r.LSN != uint64(i+1) {
				t.Fatalf("record %d has LSN %d", i, r.LSN)
			}
			counts[r.Kind]++
			switch r.Kind {
			case KindAdmit:
				want = append(want, event{kind: qos.KindAdmitted, job: r.JobID, chain: r.Chain, tasks: r.Tasks})
			case KindReject:
				want = append(want, event{kind: qos.KindRejected, job: r.JobID})
			case KindObserve:
				want = append(want, event{kind: qos.KindClock, now: r.Now})
			case KindCapacity:
				want = append(want, event{kind: qos.KindResize, procs: r.Procs})
			case kindComplete:
			default:
				t.Fatalf("unexpected %v record in the journal", r.Kind)
			}
		}
		for _, k := range []Kind{KindAdmit, KindReject, KindObserve, KindCapacity, kindComplete} {
			if counts[k] == 0 {
				t.Fatalf("degenerate stream: no %v record (%v)", k, counts)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("observed %d events, journal holds %d, or they differ:\nobserved %+v\njournal  %+v",
				len(got), len(want), got, want)
		}
	})
}
