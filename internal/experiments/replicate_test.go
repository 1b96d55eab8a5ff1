package experiments

import (
	"strings"
	"testing"

	"milan/internal/workload"
)

func TestRunReplicatedAggregates(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 300
	rep, err := runReplicated(cfg, workload.Tunable, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 5 {
		t.Fatalf("replicas = %d", rep.Replicas)
	}
	if rep.Throughput.Mean() <= 0 || rep.Throughput.Mean() > float64(cfg.Jobs) {
		t.Fatalf("mean throughput = %v", rep.Throughput.Mean())
	}
	// Different seeds must actually vary the result (nonzero CI).
	if rep.Throughput.CI95() == 0 {
		t.Fatal("zero variance across seeds: seeds not applied")
	}
	if _, err := runReplicated(cfg, workload.Tunable, 0); err == nil {
		t.Fatal("0 replicas accepted")
	}
}

func TestReplicatedTunableDominatesWithConfidence(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 500
	tun, err := runReplicated(cfg, workload.Tunable, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := runReplicated(cfg, workload.Shape2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The gap exceeds the sum of the confidence half-widths: the headline
	// result is not seed noise.
	gap := tun.Throughput.Mean() - s2.Throughput.Mean()
	if gap <= tun.Throughput.CI95()+s2.Throughput.CI95() {
		t.Fatalf("gap %v within noise (%v + %v)", gap, tun.Throughput.CI95(), s2.Throughput.CI95())
	}
}

func TestWriteReplicated(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 150
	var sb strings.Builder
	if err := WriteReplicated(&sb, cfg, 3); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Replicated point", "95% CI", "tunable", "shape2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
