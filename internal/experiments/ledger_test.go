package experiments

import (
	"reflect"
	"testing"

	"milan/internal/fed"
	"milan/internal/obs/ledger"
	"milan/internal/qos"
	"milan/internal/workload"
)

// TestLedgerProfileDifferentialMonolith is the correctness closed loop
// for the monolithic plane: after every committed admission, the
// ledger's integrated reserved area must equal the scheduler profile's
// ReservedArea counter bit-identically — both accumulate the same
// pl.Area() values, under the same lock, in the same order.
func TestLedgerProfileDifferentialMonolith(t *testing.T) {
	led := ledger.NewSharded(ledger.Config{Capacity: 32}, 1)
	lg := led.Shard(0)
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{
		Procs:    32,
		Observer: led.DecisionObserver(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	arrivals := workload.NewPoisson(20, 3)
	release := 0.0
	commits := 0
	for id := 0; id < 300; id++ {
		release += arrivals.Next()
		arb.Observe(release)
		job := p.Job(id, release, workload.Tunable)
		job.Tenant = []string{"a", "b"}[id%2]
		if _, err := arb.Negotiate(job); err == nil {
			commits++
		}
		if got, want := lg.Snapshot().TotalReservedArea, arb.Stats().ReservedArea; got != want {
			t.Fatalf("after job %d: ledger reserved %v != profile reserved %v (diff %g)",
				id, got, want, got-want)
		}
	}
	if commits == 0 {
		t.Fatal("no job was admitted; differential vacuous")
	}
	if got := led.Merged().Commits; got != int64(commits) {
		t.Fatalf("ledger commits = %d, want %d", got, commits)
	}
}

// TestLedgerProfileDifferentialSharded runs the same differential on an
// 8-shard federated plane: every shard's ledger must track its own
// scheduler's ReservedArea bit-identically at every commit, including
// optimistic-commit fallbacks and DAG admissions.
func TestLedgerProfileDifferentialSharded(t *testing.T) {
	const shards = 8
	led := ledger.NewSharded(ledger.Config{}, shards)
	plane, err := fed.New(fed.Config{Procs: 128, Shards: shards, Observer: led.DecisionObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		for i := 0; i < shards; i++ {
			got := led.Shard(i).Snapshot().TotalReservedArea
			want := plane.ExportState().Shards[i].Stats.ReservedArea
			if got != want {
				t.Fatalf("%s: shard %d ledger reserved %v != profile reserved %v",
					step, i, got, want)
			}
		}
	}
	p := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	arrivals := workload.NewPoisson(8, 5)
	release := 0.0
	admitted := 0
	for id := 0; id < 400; id++ {
		release += arrivals.Next()
		plane.Observe(release)
		job := p.Job(id, release, workload.Tunable)
		job.Tenant = []string{"a", "b", "c"}[id%3]
		g, err := plane.Negotiate(job)
		if err == nil {
			admitted++
			if g.Shard < 0 || g.Shard >= shards {
				t.Fatalf("grant stamped with out-of-range shard %d", g.Shard)
			}
		}
		check("negotiate")
	}
	if admitted == 0 {
		t.Fatal("no job was admitted; differential vacuous")
	}
	m := led.Merged()
	var planeReserved float64
	for i := 0; i < shards; i++ {
		planeReserved += plane.ExportState().Shards[i].Stats.ReservedArea
	}
	if m.TotalReservedArea != planeReserved {
		t.Fatalf("merged reserved %v != plane-wide profile sum %v", m.TotalReservedArea, planeReserved)
	}
	if len(m.Shards) != shards {
		t.Fatalf("merged shard stamps = %v, want %d shards", m.Shards, shards)
	}
}

// TestLedgerShardCountValidation pins the configuration error: runSharded
// must refuse a ledger with fewer shards than the plane.
func TestLedgerShardCountValidation(t *testing.T) {
	led := ledger.NewSharded(ledger.Config{}, 2)
	cfg := DefaultConfig()
	cfg.Jobs = 10
	cfg.Ledger = led
	if _, _, err := runSharded(cfg, workload.Tunable, 4, 0); err == nil {
		t.Fatal("RunSharded accepted a 2-shard ledger for a 4-shard plane")
	}
}

// TestLedgerGroundTruthAccuracy closes the loop against the simulation's
// ground truth: after a full run, the ledger's exact totals must match
// the run's admission counts and the workload's per-job area, the
// realized area must equal the reserved area (every admitted job
// completed inside the simulation).
func TestLedgerGroundTruthAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 500
	cfg.Ledger = ledger.NewSharded(ledger.Config{}, 1)
	cfg.Tenants = &workload.TenantCycle{Tenants: []string{"acme", "globex"}, Classes: 2}
	res, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Ledger.Merged()
	if s.Commits != int64(res.Admitted) || s.Rejections != int64(res.Rejected) {
		t.Fatalf("ledger commits/rejections = %d/%d, run = %d/%d",
			s.Commits, s.Rejections, res.Admitted, res.Rejected)
	}
	if s.Completions != s.Commits {
		t.Fatalf("completions %d != commits %d (simulation ran to quiescence)", s.Completions, s.Commits)
	}
	// Every chain of the Figure-4 job reserves exactly 2·x·t = 800
	// processor-time units, an integer-valued float: the sum is exact.
	wantArea := cfg.Job.Area() * float64(res.Admitted)
	if s.TotalReservedArea != wantArea {
		t.Fatalf("reserved area %v, want %v (= %v x %d admitted)",
			s.TotalReservedArea, wantArea, cfg.Job.Area(), res.Admitted)
	}
	if s.TotalRealizedArea != wantArea {
		t.Fatalf("realized area %v, want %v", s.TotalRealizedArea, wantArea)
	}
	if s.TotalWasteArea() != 0 {
		t.Fatalf("waste %v after quiescence, want 0", s.TotalWasteArea())
	}
	// All four (tenant, class) cells must have traffic, and their exact
	// totals must sum back to the whole.
	if len(s.Totals) != 4 {
		t.Fatalf("got %d accounting keys, want 4: %+v", len(s.Totals), s.Totals)
	}
	var sum float64
	for _, tt := range s.Totals {
		if tt.Commits == 0 {
			t.Errorf("key %s/%d saw no commits", tt.Tenant, tt.Class)
		}
		sum += tt.ReservedArea
	}
	if sum != s.TotalReservedArea {
		t.Fatalf("per-key reserved sums to %v, total is %v", sum, s.TotalReservedArea)
	}
	if got := s.Capacity; got != cfg.Procs {
		t.Fatalf("snapshot capacity %d, want %d", got, cfg.Procs)
	}
}

// TestDefaultRunUnchangedByLedger pins the zero-interference contract:
// attaching a ledger (and tenant stamping) must not change a run's
// admission decisions or reported results, monolithic or sharded.
func TestDefaultRunUnchangedByLedger(t *testing.T) {
	base := DefaultConfig()
	base.Jobs = 800

	plain, err := Run(base, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	with := base
	with.Ledger = ledger.NewSharded(ledger.Config{}, 1)
	with.Tenants = &workload.TenantCycle{Tenants: []string{"a", "b", "c"}, Classes: 3}
	ledgered, err := Run(with, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ledgered) {
		t.Fatalf("ledger changed the monolithic run:\nplain    %+v\nledgered %+v", plain, ledgered)
	}

	plainSh, plainSt, err := runSharded(base, workload.Tunable, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	withSh := base
	withSh.Ledger = ledger.NewSharded(ledger.Config{}, 2)
	withSh.Tenants = with.Tenants
	ledgeredSh, ledgeredSt, err := runSharded(withSh, workload.Tunable, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainSh, ledgeredSh) || !reflect.DeepEqual(plainSt, ledgeredSt) {
		t.Fatalf("ledger changed the sharded run:\nplain    %+v %+v\nledgered %+v %+v",
			plainSh, plainSt, ledgeredSh, ledgeredSt)
	}
}

// TestTenantCycleDeterminism pins the round-robin assignment the
// reproducibility story depends on.
func TestTenantCycleDeterminism(t *testing.T) {
	tc := &workload.TenantCycle{Tenants: []string{"a", "b"}, Classes: 2}
	want := []struct {
		tenant string
		class  int
	}{
		{"a", 0}, {"b", 0}, {"a", 1}, {"b", 1}, {"a", 0}, {"b", 0},
	}
	for id, w := range want {
		tenant, class := tc.Assign(id)
		if tenant != w.tenant || class != w.class {
			t.Errorf("Assign(%d) = %s/%d, want %s/%d", id, tenant, class, w.tenant, w.class)
		}
	}
	var nilCycle *workload.TenantCycle
	if tenant, class := nilCycle.Assign(5); tenant != "" || class != 0 {
		t.Errorf("nil cycle assigned %q/%d", tenant, class)
	}
}
