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
