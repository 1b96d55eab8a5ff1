package experiments

import (
	"reflect"
	"testing"

	"milan/internal/obs/forensics"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/workload"
)

// referenceRun is Run on the reference arbitrator: the same scheduler
// options, the same decision feed and the same loop, with qos.Arbitrator
// deciding instead of the one-shard plane.
func referenceRun(cfg Config, sys workload.System) (RunResult, error) {
	cfg.Ledger.SetCapacity(cfg.Procs)
	arb, err := qos.NewArbitrator(qos.ArbitratorConfig{
		Procs:    cfg.Procs,
		Options:  cfg.schedulerOptions(),
		Observer: cfg.Ledger.DecisionObserver(nil),
	})
	if err != nil {
		return RunResult{}, err
	}
	res := runLoop(cfg, cfg.jobs(sys, cfg.poisson()), arb)
	res.System = sys
	return res, nil
}

// TestRunMatchesTheReference is the experiments-level face of "one-shard
// plane ≡ reference": every Figure 5(a) point of the test configuration,
// run once through Run and once through runLoop over qos.Arbitrator with a
// ledger, a forensics recorder and an SLO engine attached to each, yields
// bit-equal results, equal ledger books and equal rejection diagnoses —
// so the figures the plane produces are the figures the reference did.
func TestRunMatchesTheReference(t *testing.T) {
	type side struct {
		res RunResult
		led *ledger.Snapshot
		rec []forensics.Record
	}
	run := func(cfg Config, sys workload.System, drive func(Config, workload.System) (RunResult, error)) side {
		t.Helper()
		cfg.Ledger = ledger.New(ledger.Config{})
		cfg.Tenants = &workload.TenantCycle{Tenants: []string{"a", "b"}, Classes: 2}
		rec := forensics.NewRecorder(cfg.Jobs)
		cfg.Forensics = rec
		cfg.SLO = slo.New(slo.Options{})
		res, err := drive(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		return side{res, cfg.Ledger.Snapshot(), rec.Records()}
	}
	base := testConfig()
	rejected := 0
	for _, iv := range defaultIntervals() {
		cfg := base
		cfg.MeanInterarrival = iv
		for _, sys := range workload.Systems {
			got, want := run(cfg, sys, Run), run(cfg, sys, referenceRun)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("interval %v %s: run differs from the reference\nplane:     %+v\nreference: %+v", iv, sys, got.res, want.res)
			}
			if !reflect.DeepEqual(got.led, want.led) {
				t.Fatalf("interval %v %s: ledger differs from the reference's\nplane:     %+v\nreference: %+v", iv, sys, got.led, want.led)
			}
			if !reflect.DeepEqual(got.rec, want.rec) {
				t.Fatalf("interval %v %s: %d diagnoses differ from the reference's %d", iv, sys, len(got.rec), len(want.rec))
			}
			rejected += got.res.Rejected
		}
	}
	if rejected == 0 {
		t.Fatal("no run rejected a job; the forensics comparison is vacuous")
	}
}
