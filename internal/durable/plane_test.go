package durable

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// The durable plane must be a drop-in arbitrator for qosnet servers.
var _ qosnet.Arbitrator = (*Plane)(nil)

func planeStream(n int, seed int64) []core.Job {
	p := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	return p.Stream(workload.NewPoisson(6, seed), n, workload.Tunable)
}

func openPlane(t *testing.T, fs vfs.FS, shards int, opts StoreOptions) (*Plane, Recovered) {
	t.Helper()
	p, rec, err := OpenPlane(Config{
		FS: fs, Dir: "log", Procs: 16, Shards: shards, ProbeK: 1,
		Store: opts,
	})
	if err != nil {
		t.Fatalf("open plane: %v", err)
	}
	return p, rec
}

// drive pushes jobs through any negotiator-shaped plane, observing each
// release first (the sim loop's discipline), and returns granted job IDs.
func drive(t *testing.T, observe func(float64), negotiate func(core.Job) (*qos.Grant, error), jobs []core.Job) []int {
	t.Helper()
	var granted []int
	for _, job := range jobs {
		observe(job.Release)
		g, err := negotiate(job)
		if err != nil {
			if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("job %d: %v", job.ID, err)
			}
			continue
		}
		granted = append(granted, g.JobID)
	}
	return granted
}

// TestPlaneReopenIsExact: close and reopen at any point; the recovered
// plane must be bitwise-identical to the one that kept running, and must
// keep making identical decisions afterwards.
func TestPlaneReopenIsExact(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, snapEvery := range []int{4, 1 << 20} {
			jobs := planeStream(300, 11)
			mem := vfs.NewMem()
			p, _ := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: snapEvery})
			ref, _, err := OpenPlane(Config{FS: vfs.NewMem(), Dir: "ref", Procs: 16, Shards: shards, ProbeK: 1,
				Store: StoreOptions{SnapshotEvery: snapEvery}})
			if err != nil {
				t.Fatal(err)
			}

			cut := 170
			drive(t, p.Observe, p.Negotiate, jobs[:cut])
			drive(t, ref.Observe, ref.Negotiate, jobs[:cut])
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p2, rec := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: snapEvery})
			got := p2.ExportState()
			want := ref.ExportState()
			if err := DiffStates(&got, &want); err != nil {
				t.Fatalf("shards=%d snapEvery=%d: recovered state diverged: %v (recovery %+v)",
					shards, snapEvery, err, rec)
			}

			// The recovered plane keeps deciding identically.
			gp := drive(t, p2.Observe, p2.Negotiate, jobs[cut:])
			gr := drive(t, ref.Observe, ref.Negotiate, jobs[cut:])
			if len(gp) != len(gr) {
				t.Fatalf("shards=%d: post-recovery grants %d vs %d", shards, len(gp), len(gr))
			}
			got, want = p2.ExportState(), ref.ExportState()
			if err := DiffStates(&got, &want); err != nil {
				t.Fatalf("shards=%d: post-recovery divergence: %v", shards, err)
			}
		}
	}
}

// TestPlaneCrashLosesNothingUnderSyncAlways: a hard crash (no Close) after
// every ack must preserve every acknowledged grant.
func TestPlaneCrashLosesNothingUnderSyncAlways(t *testing.T) {
	jobs := planeStream(150, 13)
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 2, StoreOptions{Sync: SyncAlways, SnapshotEvery: 8})
	drive(t, p.Observe, p.Negotiate, jobs)
	want := p.ExportState()
	mem.Crash()

	p2, _ := openPlane(t, mem, 2, StoreOptions{})
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("crash lost state under SyncAlways: %v", err)
	}
}

// TestPlaneCompletionSurvivesRecovery: completed grants leave the live set
// durably.
func TestPlaneCompletionSurvivesRecovery(t *testing.T) {
	jobs := planeStream(40, 17)
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 1, StoreOptions{})
	granted := drive(t, p.Observe, p.Negotiate, jobs)
	if len(granted) < 2 {
		t.Fatalf("want at least 2 grants, got %d", len(granted))
	}
	done := granted[0]
	if err := p.JobCompleted(done, p.Now()); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	p2, _ := openPlane(t, mem, 1, StoreOptions{})
	for _, g := range p2.Grants() {
		if g.JobID == done {
			t.Fatalf("completed job %d reappeared as a live grant after recovery", done)
		}
	}
}

// TestShedderNeverResurrectsSheds is the shedder x recovery interlock:
// jobs refused by admission fairness are journaled as sheds and must
// never reappear as committed grants after crash recovery.
func TestShedderNeverResurrectsSheds(t *testing.T) {
	jobs := planeStream(250, 19)
	mem := vfs.NewMem()
	shed := &qos.ShedConfig{
		Capacity:     16,
		Horizon:      50,
		DefaultQuota: 0.2, // tight quota: plenty of sheds
	}
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 2, ProbeK: 1,
		Store: StoreOptions{SnapshotEvery: 16},
		Shed:  shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	shedIDs := map[int]bool{}
	var acked []int
	for _, job := range jobs {
		p.Observe(job.Release)
		g, err := p.Negotiate(job)
		switch {
		case err == nil:
			acked = append(acked, g.JobID)
			if int(p.DurableLSN()) == 0 {
				t.Fatal("ack before anything durable")
			}
		case errors.Is(err, qos.ErrShed):
			shedIDs[job.ID] = true
		case errors.Is(err, qos.ErrRejected):
		default:
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	if len(shedIDs) == 0 {
		t.Fatal("workload produced no sheds; tighten the quota")
	}
	want := p.ExportState()
	mem.Crash()

	p2, rec, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 2, ProbeK: 1, Shed: shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("recovery diverged: %v", err)
	}
	for _, g := range p2.Grants() {
		if shedIDs[g.JobID] {
			t.Fatalf("shed job %d reappeared as a committed grant after replay", g.JobID)
		}
	}
	if rec.Torn {
		t.Fatal("unexpected torn tail under SyncAlways")
	}
}

// TestPlanePoisonedRefusesDecisions: after an append failure the plane
// fails fast instead of diverging memory from log.
func TestPlanePoisonedRefusesDecisions(t *testing.T) {
	boom := errors.New("dead disk")
	ft := vfs.NewFault(vfs.NewMem())
	p, _ := openPlane(t, ft, 1, StoreOptions{})
	jobs := planeStream(10, 23)
	drive(t, p.Observe, p.Negotiate, jobs[:3])

	ft.SetWriteError(boom, 0)
	var failedAt int
	for _, job := range jobs[3:] {
		if _, err := p.Negotiate(job); err != nil && !errors.Is(err, qos.ErrRejected) {
			failedAt = job.ID
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("no negotiate failed under write fault")
	}
	if p.Err() == nil {
		t.Fatal("plane not poisoned after append failure")
	}
	if _, err := p.Negotiate(jobs[len(jobs)-1]); err == nil || errors.Is(err, qos.ErrRejected) {
		t.Fatalf("poisoned plane kept deciding: %v", err)
	}
}

// TestPlaneMetricsPopulated: the durability instruments move.
func TestPlaneMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	mem := vfs.NewMem()
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 1,
		Store: StoreOptions{SnapshotEvery: 8}, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p.Observe, p.Negotiate, planeStream(60, 29))
	if met.Appends.Value() == 0 || met.Fsyncs.Value() == 0 {
		t.Fatalf("append instruments flat: appends=%d fsyncs=%d", met.Appends.Value(), met.Fsyncs.Value())
	}
	if met.Snapshots.Value() < 2 { // one at open, more from cadence
		t.Fatalf("snapshots = %d", met.Snapshots.Value())
	}
	if met.SnapshotBytes.Value() <= 0 {
		t.Fatal("snapshot size gauge flat")
	}
	mem.Crash()
	if _, _, err := OpenPlane(Config{FS: mem, Dir: "log", Procs: 16, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.RecoveryRecords.Value() == 0 && met.Snapshots.Value() < 3 {
		t.Fatal("recovery instruments flat")
	}
}

// TestOneShardPlaneIsTracedAndTimed: the plane junctiond serves by default
// honours Config.Tracer — an untraced request gets route and plan spans
// under the server's qosnet.negotiate root — and its latency waterfall is
// the monolith's: route, plan, reserve, journal and ack sum to the
// end-to-end time, with no probe phase.
func TestOneShardPlaneIsTracedAndTimed(t *testing.T) {
	tr := obs.NewTracer(64)
	p, _, err := OpenPlane(Config{FS: vfs.NewMem(), Dir: "log", Procs: 16, Shards: 1, ProbeK: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := qosnet.ListenAndServe(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lp := latency.New(latency.Config{Registry: obs.NewRegistry()})
	srv.SetTracer(tr)
	srv.SetLatency(lp)
	cli, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Negotiate(planeStream(1, 5)[0]); err != nil {
		t.Fatal(err)
	}

	byName := map[string]obs.SpanRec{}
	for _, sp := range tr.Spans() {
		byName[sp.Name] = sp
	}
	root, route, plan := byName["qosnet.negotiate"], byName["fed.route"], byName["fed.admit"]
	if root.ID == 0 || route.Parent != root.ID || plan.Parent != route.ID || plan.Stage != obs.StagePlan {
		t.Fatalf("span tree of a 1-shard admission: %+v", tr.Spans())
	}
	ex := lp.TopK()
	if len(ex) != 1 {
		t.Fatalf("%d latency exemplars, want 1", len(ex))
	}
	var sum int64
	for _, d := range ex[0].Durs {
		sum += d
	}
	if d := ex[0].Durs; sum != ex[0].Total || d[phase.Probe] != 0 || d[phase.Plan] <= 0 || d[phase.Journal] <= 0 {
		t.Fatalf("waterfall %v does not read route/plan/reserve/journal/ack summing to %d", d, ex[0].Total)
	}
}

// TestPlaneRebalanceJournalsCapacity: a rebalancer migration lands in the
// journal and survives recovery.
func TestPlaneRebalanceJournalsCapacity(t *testing.T) {
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 4, StoreOptions{})
	// Load shard-asymmetric work through the router, then move capacity.
	drive(t, p.Observe, p.Negotiate, planeStream(80, 31))
	moved, err := p.Rebalance(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Skip("no migration possible on this workload")
	}
	want := p.ExportState()
	mem.Crash()
	p2, _ := openPlane(t, mem, 4, StoreOptions{})
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("capacity move lost in recovery: %v", err)
	}
}

// eagerGrants is the differential reference for the plane's lazy live set:
// the grant bookkeeping as it was kept before — a map from which every
// clock advance walks out the elapsed grants, eagerly.
type eagerGrants struct {
	now    float64
	grants map[int]GrantRecord
}

// observe advances the clock and returns the IDs that elapsed with it.
func (e *eagerGrants) observe(now float64) (elapsed []int) {
	if now <= e.now {
		return nil
	}
	e.now = now
	for id, g := range e.grants {
		if g.Finish() <= now {
			delete(e.grants, id)
			elapsed = append(elapsed, id)
		}
	}
	return elapsed
}

func (e *eagerGrants) sorted() []GrantRecord {
	out := make([]GrantRecord, 0, len(e.grants))
	for _, g := range e.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// sameGrants is bit-for-bit equality of two sorted grant lists: every
// field (DeepEqual) and raw float bits (diffGrants).
func sameGrants(got, want []GrantRecord) error {
	if err := diffGrants(got, want); err != nil {
		return err
	}
	if len(got) > 0 && !reflect.DeepEqual(got, want) { // a decoded empty set is nil, an exported one is not
		return fmt.Errorf("grants differ outside the placement: got %+v want %+v", got, want)
	}
	return nil
}

// TestPlaneLazyLiveSetMatchesEagerReference drives a seeded mix of admits,
// clock reports, completions (of live grants, of grants that have already
// elapsed, of IDs never granted) and forced snapshots, and holds the plane
// to the eager reference: the same live set through Grants() and
// ExportState(), the same journal length (a completion of an elapsed grant
// writes nothing), the same state after crash + reopen.  With checkEvery 1
// the public readers run — and sweep the map — after every operation; with
// checkEvery 9 they run rarely, so elapsed entries stay in the map between
// sweeps and the readers that must not see them are exercised.
func TestPlaneLazyLiveSetMatchesEagerReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, checkEvery := range []int{1, 9} {
			t.Run(fmt.Sprintf("shards=%d/checkEvery=%d", shards, checkEvery), func(t *testing.T) {
				lazyLiveSetDifferential(t, shards, checkEvery)
			})
		}
	}
}

func lazyLiveSetDifferential(t *testing.T, shards, checkEvery int) {
	const ops = 600
	rng := rand.New(rand.NewSource(int64(41*shards + checkEvery)))
	tmpl := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	mem := vfs.NewMem()
	opts := StoreOptions{SnapshotEvery: 32}
	p, _ := openPlane(t, mem, shards, opts)

	ref := &eagerGrants{grants: map[int]GrantRecord{}}
	var (
		wantLSN    uint64
		everLive   []int            // every ID ever granted: the pool completions draw from
		unswept    = map[int]bool{} // elapsed since the plane last walked its map
		lazyHits   int              // completions that found an elapsed entry still in the map
		nextJob    int
		lastRecCnt int
	)
	// observe reports the clock to the reference and the plane alike.
	observe := func(now float64) {
		if now > ref.now {
			wantLSN++
		}
		for _, id := range ref.observe(now) {
			unswept[id] = true
		}
		p.Observe(now)
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // admit, released a little after the clock (and reported first)
			job := tmpl.Job(nextJob, ref.now+rng.ExpFloat64()*4, workload.Tunable)
			nextJob++
			job.Tenant = []string{"", "acme", "globex"}[rng.Intn(3)]
			job.Class = rng.Intn(3)
			observe(job.Release)
			g, err := p.Negotiate(job)
			wantLSN++ // admit or reject, one record either way
			if err != nil {
				if !errors.Is(err, qos.ErrRejected) {
					t.Fatalf("op %d: job %d: %v", op, job.ID, err)
				}
				break
			}
			ref.grants[g.JobID] = GrantRecord{
				JobID: g.JobID, Shard: g.Shard, Chain: g.Chain,
				Quality: g.Quality, Tunable: job.Tunable(),
				Tenant: job.Tenant, Class: job.Class,
				Tasks: append([]core.TaskPlacement(nil), g.Placement.Tasks...),
			}
			everLive = append(everLive, g.JobID)
		case k < 6: // clock report on its own, sometimes stale
			now := ref.now + rng.Float64()*3 - 1
			if rng.Intn(3) == 0 { // exactly the next finish: the boundary of the live predicate
				next := math.Inf(1)
				for _, g := range ref.grants {
					next = min(next, g.Finish())
				}
				if !math.IsInf(next, 1) {
					now = next
				}
			}
			observe(now)
		case k < 9: // completion: live, elapsed or unknown
			id := 1 << 20 // never granted
			switch pick := rng.Intn(8); {
			case pick < 2 && len(unswept) > 0: // elapsed, and the map may still hold it
				for u := range unswept {
					id = min(id, u)
				}
			case pick < 7 && len(everLive) > 0: // one of the latest grants: live or just elapsed
				id = everLive[len(everLive)-1-rng.Intn(min(16, len(everLive)))]
			}
			_, live := ref.grants[id]
			if _, mapped := p.grants[id]; mapped && !live {
				lazyHits++
			}
			if live {
				delete(ref.grants, id)
				wantLSN++
			}
			if err := p.JobCompleted(id, ref.now); err != nil {
				t.Fatalf("op %d: complete %d: %v", op, id, err)
			}
		default:
			if err := p.Snapshot(); err != nil {
				t.Fatalf("op %d: snapshot: %v", op, err)
			}
			clear(unswept)
		}
		if p.store.recordsSinceSnap < lastRecCnt {
			clear(unswept) // the cadence took a snapshot inside this operation
		}
		lastRecCnt = p.store.recordsSinceSnap

		if got := p.store.NextLSN() - 1; got != wantLSN {
			t.Fatalf("op %d: journal holds %d records, the eager plane's rule gives %d", op, got, wantLSN)
		}
		if len(p.grants) > len(ref.grants)+len(unswept) {
			t.Fatalf("op %d: map holds %d grants, more than %d live + %d elapsed since the last sweep",
				op, len(p.grants), len(ref.grants), len(unswept))
		}
		for id := range ref.grants {
			if _, ok := p.liveGrant(id); !ok {
				t.Fatalf("op %d: live grant %d not visible", op, id)
			}
		}

		if op%checkEvery == 0 {
			want := ref.sorted()
			if err := sameGrants(p.Grants(), want); err != nil {
				t.Fatalf("op %d: Grants(): %v", op, err)
			}
			st := p.ExportState()
			clear(unswept)
			if st.LSN != wantLSN || fb(st.Now) != fb(ref.now) {
				t.Fatalf("op %d: export at lsn=%d now=%v, want lsn=%d now=%v", op, st.LSN, st.Now, wantLSN, ref.now)
			}
			if err := sameGrants(st.Grants, want); err != nil {
				t.Fatalf("op %d: ExportState(): %v", op, err)
			}
		}

		if op%50 == 49 {
			want := p.ExportState()
			if err := sameGrants(want.Grants, ref.sorted()); err != nil {
				t.Fatalf("op %d: pre-crash export: %v", op, err)
			}
			mem.Crash()
			var rec Recovered
			p, rec = openPlane(t, mem, shards, opts)
			if err := DiffStates(&rec.State, &want); err != nil {
				t.Fatalf("op %d: recovered state != live export: %v", op, err)
			}
			if err := sameGrants(rec.State.Grants, want.Grants); err != nil {
				t.Fatalf("op %d: recovered grants: %v", op, err)
			}
			if rec.State.LSN != wantLSN {
				t.Fatalf("op %d: recovered lsn %d, want %d", op, rec.State.LSN, wantLSN)
			}
			clear(unswept)
			lastRecCnt = p.store.recordsSinceSnap
		}
	}
	t.Logf("%d ops: %d grants, %d records, %d completions met an unswept elapsed entry", ops, len(everLive), wantLSN, lazyHits)
	if len(everLive) < ops/8 {
		t.Fatalf("only %d grants in %d ops: the stream does not exercise the live set", len(everLive), ops)
	}
	if checkEvery > 1 && lazyHits == 0 {
		t.Fatal("no completion ever met an elapsed entry still in the map: the lazy path went untested")
	}
}
