package latency

import (
	"os"
	"path/filepath"
	"testing"

	"milan/internal/obs/latency/phase"
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
	// The row timed no disk: journal and end to end stay disarmed, and
	// every other phase gets the latest row's 10000ns x3 slack.
	if env.E2E != 0 {
		t.Fatalf("E2E = %d, want disarmed", env.E2E)
	}
	for i, b := range env.Phase {
		want := int64(30000)
		if phase.Phase(i) == phase.Journal {
			want = 0
		}
		if b != want {
			t.Fatalf("phase %s budget = %d, want %d", phase.Names()[i], b, want)
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
	if b := env.Phase[phase.Plan]; b != 50000 {
		t.Fatalf("plan budget = %d, want p99 25000ns x2 slack", b)
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
