package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"milan/internal/experiments"
	"milan/internal/obs"
	"milan/internal/obs/slo"
)

// testCfg is a tiny configuration so every subcommand runs in milliseconds.
func testCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Procs = 16
	cfg.Jobs = 60
	return cfg
}

func TestRunSubcommands(t *testing.T) {
	old := replicaCount
	replicaCount = 2
	defer func() { replicaCount = old }()
	for _, what := range []string{
		"fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b",
		"exta", "extq", "extr", "extb", "point", "replicate", "gantt",
	} {
		if err := run(testCfg(), what); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
}

func TestRunSubcommandsWithPlotAndCSV(t *testing.T) {
	plotFigures = true
	defer func() { plotFigures = false }()
	if err := run(testCfg(), "fig5d"); err != nil {
		t.Errorf("plot: %v", err)
	}
	plotFigures = false
	csvFigures = true
	defer func() { csvFigures = false }()
	if err := run(testCfg(), "fig5a"); err != nil {
		t.Errorf("csv fig: %v", err)
	}
	if err := run(testCfg(), "fig6a"); err != nil {
		t.Errorf("csv grid: %v", err)
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run(testCfg(), "bogus"); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testCfg()
	cfg.Job.Alpha = 0.3 // 16*0.3 not integral
	if err := run(cfg, "fig5a"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFinishObsMetricsTable runs an instrumented point experiment and checks
// the -metrics table reports the admission counters.
func TestFinishObsMetricsTable(t *testing.T) {
	cfg := testCfg()
	o := obs.New(obs.Config{})
	cfg.Obs = o
	if err := run(cfg, "point"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := finishObs(&buf, o, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metrics:", obs.MetricAdmitted, "sched_chains_tried", "sched_holes_probed", "sim_events", "qos_decisions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics table missing %q:\n%s", want, out)
		}
	}
	if o.Reg.Snapshot().Counters[obs.MetricAdmitted] == 0 {
		t.Fatal("no admissions counted")
	}
}

// TestFinishObsNilObserver is the unobserved fast path: nothing happens.
func TestFinishObsNilObserver(t *testing.T) {
	var buf bytes.Buffer
	if err := finishObs(&buf, nil, true); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil observer wrote output: %q", buf.String())
	}
}

// TestFinishSLOReportAndFlight runs an audited point experiment and checks
// the -slo conformance report plus the -flight snapshot artifact.
func TestFinishSLOReportAndFlight(t *testing.T) {
	cfg := testCfg()
	o := obs.New(obs.Config{Tracing: true})
	rec := slo.NewRecorder(o.Tracer(), o)
	eng := slo.New(slo.Options{Registry: o.Reg, Recorder: rec})
	cfg.Obs, cfg.SLO = o, eng
	if err := run(cfg, "point"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	var buf bytes.Buffer
	if err := finishSLO(&buf, eng, rec, path); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SLO conformance: CONFORMANT", "deadline misses=0", "wrote flight snapshot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slo output missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := slo.DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != slo.TriggerManual || len(snap.Spans) == 0 || len(snap.Events) == 0 {
		t.Fatalf("snapshot: kind=%s spans=%d events=%d", snap.Kind, len(snap.Spans), len(snap.Events))
	}
}

// TestFinishSLODetectsInjectedFault lands one late completion after an
// audited run and checks the report flags the miss and the snapshot
// replays to a runtime fault.
func TestFinishSLODetectsInjectedFault(t *testing.T) {
	cfg := testCfg()
	cfg.Jobs = 30
	o := obs.New(obs.Config{Tracing: true})
	rec := slo.NewRecorder(o.Tracer(), o)
	eng := slo.New(slo.Options{Registry: o.Reg, Recorder: rec})
	cfg.Obs, cfg.SLO = o, eng
	if err := run(cfg, "point"); err != nil {
		t.Fatal(err)
	}
	// The runtime overruns one reservation: reserved to finish at 150
	// against a deadline of 200, the job completes at 1e4.
	const id, deadline, reserved, late = 1 << 20, 200.0, 150.0, 1e4
	tracer := o.Tracer()
	tr := tracer.NewTrace()
	span := tracer.StartAt(tr, 0, "job.run", obs.StageRun, id, 100)
	span.SetAttr("deadline", deadline)
	span.SetAttr("reserved_finish", reserved)
	eng.JobAdmitted(id, uint64(tr), 100, deadline, reserved)
	span.EndAt(late)
	eng.JobCompleted(id, late)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	var buf bytes.Buffer
	if err := finishSLO(&buf, eng, rec, path); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VIOLATED", "replay verdict: fault=runtime"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slo output missing %q:\n%s", want, out)
		}
	}
	if eng.Report().Conformant() {
		t.Fatal("injected fault not reported")
	}
}

// TestFinishSLONilEngine is the unaudited fast path: nothing happens.
func TestFinishSLONilEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := finishSLO(&buf, nil, nil, "ignored.jsonl"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil engine wrote output: %q", buf.String())
	}
	if _, err := os.Stat("ignored.jsonl"); err == nil {
		t.Fatal("nil engine created a flight file")
	}
}

// TestGanttDemoInstrumented checks the gantt subcommand also feeds the
// observer when one is configured.
func TestGanttDemoInstrumented(t *testing.T) {
	cfg := testCfg()
	o := obs.New(obs.Config{})
	cfg.Obs = o
	if err := run(cfg, "gantt"); err != nil {
		t.Fatal(err)
	}
	if o.Reg.Snapshot().Counters[obs.MetricAdmitted] == 0 {
		t.Fatal("gantt demo did not count admissions")
	}
}
