package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// The benign matrix must be breach-free — admitted ⇒ deadline met, fair
// shares, capacity conserved — and bit-reproducible: the same seed must
// yield the same digests and verdicts on every cell.
func TestBenignMatrixDeterministicAndBreachFree(t *testing.T) {
	cfg := Config{Seed: 42, Jobs: 150}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Runs) == 0 {
		t.Fatal("empty matrix")
	}
	for _, rr := range first.Runs {
		for _, b := range rr.Breaches {
			t.Errorf("benign breach: %s", b)
		}
		if rr.Admitted == 0 {
			t.Errorf("%s/%s admitted nothing — the scenario exercised no admissions", rr.Scenario, rr.Plane)
		}
		if rr.Scenario == "saturation-overload" && rr.Shed == 0 {
			t.Errorf("%s/%s shed nothing — the fairness invariants were never exercised", rr.Scenario, rr.Plane)
		}
	}

	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Runs) != len(first.Runs) {
		t.Fatalf("matrix size changed between runs: %d vs %d", len(first.Runs), len(second.Runs))
	}
	for i, a := range first.Runs {
		b := second.Runs[i]
		if a.Scenario != b.Scenario || a.Plane != b.Plane || a.Seed != b.Seed {
			t.Fatalf("run %d identity drifted: %+v vs %+v", i, a, b)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s/%s: digest %x != %x for the same seed — run is not reproducible",
				a.Scenario, a.Plane, a.Digest, b.Digest)
		}
		if a.Admitted != b.Admitted || a.Rejected != b.Rejected || a.Shed != b.Shed {
			t.Errorf("%s/%s: decision counts drifted: %+v vs %+v", a.Scenario, a.Plane, a, b)
		}
	}
}

// Different seeds must actually change the event sequence (otherwise the
// campaign is not randomized at all).
func TestSeedsDiversify(t *testing.T) {
	a, err := Run(Config{Seed: 1, Jobs: 80, Scenarios: []string{"saturation-overload"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 2, Jobs: 80, Scenarios: []string{"saturation-overload"}})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Runs {
		if a.Runs[i].Digest == b.Runs[i].Digest {
			same++
		}
	}
	if same == len(a.Runs) {
		t.Fatal("all digests identical across different seeds")
	}
}

func TestScenarioFilterUnknown(t *testing.T) {
	if _, err := Run(Config{Scenarios: []string{"no-such-scenario"}}); err == nil {
		t.Fatal("unknown scenario filter must error")
	}
}

// allBreaches flattens every run's breaches.
func allBreaches(rep *Report) []Breach {
	var out []Breach
	for _, run := range rep.Runs {
		out = append(out, run.Breaches...)
	}
	return out
}

// breachesWithFault returns the breaches matching the fault, failing the test
// when none carry an artifact.
func breachesWithFault(t *testing.T, rep *Report, fault string) []Breach {
	t.Helper()
	var out []Breach
	for _, b := range allBreaches(rep) {
		if b.Fault == fault {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no breach localized to fault %q; got %v", fault, allBreaches(rep))
	}
	return out
}

// roundTrip pushes a breach's artifact through the JSONL wire format and
// asserts the replayed verdict survives the trip.
func roundTrip(t *testing.T, b Breach, wantFault string) {
	t.Helper()
	if b.Artifact == nil {
		t.Fatalf("breach %s carries no artifact", b)
	}
	var buf bytes.Buffer
	if err := b.Artifact.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if decoded.Scenario != b.Artifact.Scenario || decoded.Seed != b.Artifact.Seed {
		t.Fatalf("artifact identity lost: %+v vs %+v", decoded, b.Artifact)
	}
	v := ReplayArtifact(decoded)
	if v.Fault != wantFault {
		t.Fatalf("replayed artifact localizes to %q, want %q (reason %q)", v.Fault, wantFault, v.Reason)
	}
}

// A deliberately injected over-admission (reservations past the reported
// deadline) must breach admitted⇒deadline-met and replay to the planner.
func TestInjectOverAdmissionLocalizesToPlanner(t *testing.T) {
	rep, err := Run(Config{
		Seed:      7,
		Jobs:      60,
		Scenarios: []string{"arrival-storm"},
		Inject:    Inject{OverAdmission: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range breachesWithFault(t, rep, "planner") {
		if b.Invariant != "admitted=>deadline-met" {
			continue
		}
		if b.Artifact == nil {
			continue
		}
		found = true
		roundTrip(t, b, "planner")
	}
	if !found {
		t.Fatal("no planner breach with a replayable artifact")
	}
}

// Completions landing past their reservation must breach the same
// invariant but replay to the runtime — the plan was sound, execution
// broke it.  The evidence is the spans the campaign's own loop mints,
// job.admit and job.run.
func TestInjectCompletionDelayLocalizesToRuntime(t *testing.T) {
	rep, err := Run(Config{
		Seed:      7,
		Jobs:      60,
		Scenarios: []string{"arrival-storm"},
		Inject:    Inject{CompletionDelay: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	planes := map[Plane]bool{}
	for _, b := range breachesWithFault(t, rep, "runtime") {
		if b.Artifact == nil {
			continue
		}
		planes[b.Plane] = true
		roundTrip(t, b, "runtime")
		for _, sp := range b.Artifact.Snapshot.Spans {
			if sp.Name != "job.admit" && sp.Name != "job.run" {
				t.Fatalf("%s artifact holds a %s span", b.Plane, sp.Name)
			}
		}
	}
	if !planes[planeOneShard] {
		t.Fatalf("runtime breaches with a replayable artifact on %v, want %s", planes, planeOneShard)
	}
}

// Turning the shedder off under saturation must break the fairness
// invariants and replay to the shedder.
func TestInjectShedderBypassLocalizesToShedder(t *testing.T) {
	rep, err := Run(Config{
		Seed:      7,
		Jobs:      250,
		Scenarios: []string{"saturation-overload"},
		Inject:    Inject{ShedderBypass: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range breachesWithFault(t, rep, "shedder") {
		if b.Artifact != nil {
			roundTrip(t, b, "shedder")
			return
		}
	}
	t.Fatal("no shedder breach carried an artifact")
}

func TestBreachString(t *testing.T) {
	b := Breach{Scenario: "s", Plane: planeOneShard, Invariant: "i", Detail: "d", Fault: "planner"}
	s := b.String()
	for _, want := range []string{"s/shards=1", "fault=planner", "i broken"} {
		if !strings.Contains(s, want) {
			t.Errorf("breach string %q missing %q", s, want)
		}
	}
}
