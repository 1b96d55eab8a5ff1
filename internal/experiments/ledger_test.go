package experiments

import (
	"reflect"
	"testing"

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
	lg := ledger.New(ledger.Config{Capacity: 32})
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{
		Procs:    32,
		Observer: lg.DecisionObserver(nil),
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
	if got := lg.Snapshot().Commits; got != int64(commits) {
		t.Fatalf("ledger commits = %d, want %d", got, commits)
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
	cfg.Ledger = ledger.New(ledger.Config{})
	cfg.Tenants = &workload.TenantCycle{Tenants: []string{"acme", "globex"}, Classes: 2}
	res, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Ledger.Snapshot()
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
// admission decisions or reported results.
func TestDefaultRunUnchangedByLedger(t *testing.T) {
	base := DefaultConfig()
	base.Jobs = 800

	plain, err := Run(base, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	with := base
	with.Ledger = ledger.New(ledger.Config{})
	with.Tenants = &workload.TenantCycle{Tenants: []string{"a", "b", "c"}, Classes: 3}
	ledgered, err := Run(with, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ledgered) {
		t.Fatalf("ledger changed the run:\nplain    %+v\nledgered %+v", plain, ledgered)
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
