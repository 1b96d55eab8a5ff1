package experiments

import (
	"strings"
	"testing"

	"milan/internal/workload"
)

func TestRunBurstyComparesProcesses(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 600
	cmps, err := RunBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 2 || cmps[0].Process != "poisson" || cmps[1].Process != "bursty" {
		t.Fatalf("cmps = %+v", cmps)
	}
	for _, c := range cmps {
		for _, sys := range workload.Systems {
			r := c.Results[sys]
			if r.Admitted+r.Rejected != cfg.Jobs {
				t.Errorf("%s/%s: %d+%d != %d", c.Process, sys, r.Admitted, r.Rejected, cfg.Jobs)
			}
		}
		// Tunability helps under both processes at this load.
		if c.gain() <= 0 {
			t.Errorf("%s: gain = %d, want positive", c.Process, c.gain())
		}
	}
}

func TestArrivalFactoryOverride(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 200
	fixedGap := cfg.MeanInterarrival
	cfg.ArrivalFactory = func(seed int64) workload.Arrivals {
		return constGap(fixedGap)
	}
	a, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic arrivals: identical runs regardless of seed handling.
	if a.Admitted != b.Admitted || a.Horizon != b.Horizon {
		t.Fatalf("fixed arrivals diverged: %+v vs %+v", a, b)
	}
	// Horizon matches the deterministic release schedule.
	if a.Horizon < fixedGap*float64(cfg.Jobs) {
		t.Fatalf("horizon = %v", a.Horizon)
	}
}

func TestWriteBursty(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 150
	cmps, err := RunBursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBursty(&sb, cmps, cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXT-A", "poisson", "bursty", "gain vs best"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// constGap is an arrival process with one constant gap.
type constGap float64

func (g constGap) Next() float64 { return float64(g) }
