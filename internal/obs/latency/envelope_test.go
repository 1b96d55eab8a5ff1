package latency

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeTrajectory(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traj.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEnvelopeFromTrajectoryLatestWins(t *testing.T) {
	path := writeTrajectory(t, `{"name":"BenchmarkShardedAdmit/shards=8","ns_per_op":20000,"allocs_per_op":15}

{"name":"BenchmarkMonolithAdmit","ns_per_op":40000,"allocs_per_op":9}
{"name":"BenchmarkShardedAdmit/shards=8","ns_per_op":10000,"allocs_per_op":15}
`)
	env, err := EnvelopeFromTrajectory(path, "ShardedAdmit/shards=8", 3)
	if err != nil {
		t.Fatal(err)
	}
	if env.E2E != 30000 {
		t.Fatalf("E2E = %d, want latest row 10000ns x3 slack", env.E2E)
	}
	for i, b := range env.Phase {
		if b != 30000 {
			t.Fatalf("phase %d budget = %d, want uniform 30000", i, b)
		}
	}
}

// When the trajectory row carries a measured p99, the envelope derives
// from the tail, not the mean.
func TestEnvelopeFromTrajectoryPrefersP99(t *testing.T) {
	path := writeTrajectory(t, `{"name":"BenchmarkShardedAdmit/shards=8","ns_per_op":10000,"p99_ns_per_op":25000}
`)
	env, err := EnvelopeFromTrajectory(path, "ShardedAdmit", 2)
	if err != nil {
		t.Fatal(err)
	}
	if env.E2E != 50000 {
		t.Fatalf("E2E = %d, want p99 25000ns x2 slack", env.E2E)
	}
}

func TestEnvelopeFromTrajectoryErrors(t *testing.T) {
	path := writeTrajectory(t, `{"name":"BenchmarkOther","ns_per_op":100}
`)
	if _, err := EnvelopeFromTrajectory(path, "NoSuchBench", 1); err == nil {
		t.Fatal("missing match accepted")
	}
	if _, err := EnvelopeFromTrajectory(filepath.Join(t.TempDir(), "absent"), "x", 1); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeTrajectory(t, "{not json}\n")
	if _, err := EnvelopeFromTrajectory(bad, "x", 1); err == nil {
		t.Fatal("malformed row accepted")
	}
	zero := writeTrajectory(t, `{"name":"BenchmarkZero","ns_per_op":0}
`)
	if _, err := EnvelopeFromTrajectory(zero, "Zero", 1); err == nil {
		t.Fatal("zero-latency row accepted")
	}
}

func TestUniformEnvelope(t *testing.T) {
	env := uniform(time.Microsecond)
	if env.E2E != 1000 {
		t.Fatalf("E2E = %d", env.E2E)
	}
	for i, b := range env.Phase {
		if b != 1000 {
			t.Fatalf("phase %d = %d", i, b)
		}
	}
}
