package experiments

import (
	"strings"
	"testing"

	"milan/internal/workload"
)

func TestBestEffortAccountsEveryJob(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 400
	r, err := runBestEffort(cfg, workload.Shape2)
	if err != nil {
		t.Fatal(err)
	}
	if r.OnTime+r.Late != cfg.Jobs {
		t.Fatalf("on-time %d + late %d != %d (best effort must run everything)",
			r.OnTime, r.Late, cfg.Jobs)
	}
	if r.Late > 0 && r.MeanTardiness <= 0 {
		t.Fatalf("late jobs with zero tardiness: %+v", r)
	}
	if r.MaxTardiness < r.MeanTardiness {
		t.Fatalf("max %v < mean %v", r.MaxTardiness, r.MeanTardiness)
	}
	if r.Utilization <= 0 || r.Utilization > 1+1e-9 {
		t.Fatalf("utilization = %v", r.Utilization)
	}
}

func TestBestEffortRejectsTunable(t *testing.T) {
	cfg := testConfig()
	if _, err := runBestEffort(cfg, workload.Tunable); err == nil {
		t.Fatal("tunable system accepted by best-effort runner")
	}
}

// TestBestEffortUnderloadedMeetsDeadlines: with a nearly idle machine, EDF
// best effort is fine — the pathology the paper targets appears only under
// contention.
func TestBestEffortUnderloadedMeetsDeadlines(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 200
	cfg.MeanInterarrival = 300 // offered load ~0.17
	r, err := runBestEffort(cfg, workload.Shape2)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r.OnTime) < 0.9*float64(cfg.Jobs) {
		t.Fatalf("underloaded best effort on-time = %d of %d", r.OnTime, cfg.Jobs)
	}
}

// TestBestEffortOverloadDelaysGrow reproduces the motivation claim: under
// overload, best-effort delay grows with contention while the
// reservation-based system keeps every admitted job on time.
func TestBestEffortOverloadDelaysGrow(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 600 // offered load ~1.67
	be, reserved, err := BestEffortComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range be {
		if r.OnTime > reserved.throughput()/2 {
			t.Errorf("best-effort %s on-time %d not far below reservation %d",
				r.System, r.OnTime, reserved.throughput())
		}
		if r.MeanTardiness < 100 {
			t.Errorf("best-effort %s tardiness %v suspiciously small under overload",
				r.System, r.MeanTardiness)
		}
	}
	// Delay grows with contention: twice the jobs, larger max tardiness.
	bigger := cfg
	bigger.Jobs = 1200
	r2, err := runBestEffort(bigger, workload.Shape2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runBestEffort(cfg, workload.Shape2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MaxTardiness <= r1.MaxTardiness {
		t.Errorf("max tardiness did not grow with contention: %v -> %v",
			r1.MaxTardiness, r2.MaxTardiness)
	}
}

func TestWriteBestEffort(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 120
	be, reserved, err := BestEffortComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBestEffort(&sb, be, reserved, cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXT-B", "best-effort EDF", "reservation (tunable)", "tardiness"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
