package experiments

import (
	"reflect"
	"testing"

	"milan/internal/obs/forensics"
	"milan/internal/obs/slo"
	"milan/internal/workload"
)

// forensicsConfig is a small overloaded run: plenty of rejections so the
// explainer and the closed-loop verifier both get work.
func forensicsConfig() Config {
	cfg := DefaultConfig()
	cfg.Jobs = 400
	cfg.MeanInterarrival = 12 // offered load ~2.1
	return cfg
}

// TestRunForensicsClosedLoop is the forensics contract at the harness
// level: every rejection of a run is diagnosed, and every diagnosis's
// suggested relaxation — replayed through the arbitrator's side-effect-free
// WhatIf probe — flips the job to admitted.
func TestRunForensicsClosedLoop(t *testing.T) {
	cfg := forensicsConfig()
	rec := forensics.NewRecorder(cfg.Jobs) // retain everything
	cfg.Forensics = rec
	cfg.SLO = slo.New(slo.Options{})

	res, err := Run(cfg, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.Admitted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if got := rec.Total(); got != int64(res.Rejected) {
		t.Fatalf("recorded %d diagnoses for %d rejections", got, res.Rejected)
	}

	suggested, verified := 0, 0
	for _, r := range rec.Records() {
		if r.Diag.Suggestion == nil {
			continue
		}
		suggested++
		if r.Verified == nil {
			t.Fatalf("job %d: suggestion never replayed", r.Diag.JobID)
		}
		if !*r.Verified {
			t.Fatalf("job %d: suggestion %+v refuted on replay", r.Diag.JobID, *r.Diag.Suggestion)
		}
		verified++
	}
	if suggested == 0 {
		t.Fatal("no rejection carried a suggestion")
	}
	if verified != suggested {
		t.Fatalf("verified %d of %d suggestions", verified, suggested)
	}
}

// TestRunShardedForensics runs the federated plane under the same
// forensics wiring: diagnoses carry real shard stamps, the closed loop
// verifies against the plane.
func TestRunShardedForensics(t *testing.T) {
	cfg := forensicsConfig()
	cfg.Jobs = 300
	rec := forensics.NewRecorder(0)
	cfg.Forensics = rec

	res, _, err := RunSharded(cfg, workload.Tunable, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatalf("degenerate sharded run: %+v", res)
	}
	// The plane diagnoses every losing probe, so there is at least one
	// record per rejection, each stamped with the deciding shard.
	if rec.Total() < int64(res.Rejected) {
		t.Fatalf("recorded %d diagnoses for %d rejections", rec.Total(), res.Rejected)
	}
	refuted := 0
	for _, r := range rec.Records() {
		if r.Diag.Shard < 0 || r.Diag.Shard >= 2 {
			t.Fatalf("job %d: shard stamp %d", r.Diag.JobID, r.Diag.Shard)
		}
		if r.Verified != nil && !*r.Verified {
			refuted++
		}
	}
	if refuted != 0 {
		t.Fatalf("%d suggestions refuted on plane replay", refuted)
	}
}

// TestForensicsDoNotPerturbResults is the zero-interference guarantee:
// the identical configuration produces bitwise identical results with and
// without the forensics instrumentation, because diagnosis fires only on
// the failure path and every probe replans on a fork.
func TestForensicsDoNotPerturbResults(t *testing.T) {
	base := forensicsConfig()
	plain, err := Run(base, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}

	instr := base
	instr.Forensics = forensics.NewRecorder(0)
	probed, err := Run(instr, workload.Tunable)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, probed) {
		t.Fatalf("forensics perturbed the run\nplain:  %+v\nprobed: %+v", plain, probed)
	}

	// Same guarantee on the sharded plane.
	plainShard, _, err := RunSharded(base, workload.Tunable, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	probedShard, _, err := RunSharded(instr, workload.Tunable, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainShard, probedShard) {
		t.Fatalf("forensics perturbed the sharded run\nplain:  %+v\nprobed: %+v", plainShard, probedShard)
	}
}
