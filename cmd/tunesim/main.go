// Command tunesim regenerates the paper's evaluation figures on the
// synthetic task system of Section 5.3: utilization and throughput of the
// tunable vs. non-tunable task systems as arrival rate, laxity, machine
// size and job shape vary.
//
// Usage:
//
//	tunesim [flags] fig5a|fig5b|fig5c|fig5d|fig6a|fig6b|exta|extq|extr|extb|all|point|replicate|gantt
//
// The `point` subcommand runs the three systems once at the configured
// parameters and prints the raw results.  Every run is admitted by the
// one arbitrator junctiond serves.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"milan/internal/core"
	"milan/internal/experiments"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
	"milan/internal/workload"
)

func main() {
	cfg := experiments.DefaultConfig()
	flag.IntVar(&cfg.Procs, "procs", cfg.Procs, "machine size (processors)")
	flag.IntVar(&cfg.Job.X, "x", cfg.Job.X, "processors of task A")
	flag.Float64Var(&cfg.Job.T, "t", cfg.Job.T, "duration of task A")
	flag.Float64Var(&cfg.Job.Alpha, "alpha", cfg.Job.Alpha, "job shape parameter in (0,1], x*alpha integral")
	flag.Float64Var(&cfg.Job.Laxity, "laxity", cfg.Job.Laxity, "slack ratio in [0,1)")
	flag.Float64Var(&cfg.MeanInterarrival, "interval", cfg.MeanInterarrival, "mean Poisson interarrival gap")
	flag.IntVar(&cfg.Jobs, "jobs", cfg.Jobs, "number of job arrivals per run")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	malleable := flag.Bool("malleable", false, "use the malleable task model (Section 5.4)")
	tiebreak := flag.String("tiebreak", "paper", "chain tie-break policy: paper|firstfit|minarea|utilfirst")
	plot := flag.Bool("plot", false, "render figures as ASCII charts in addition to tables")
	csvOut := flag.Bool("csv", false, "emit figures as CSV instead of tables")
	replicas := flag.Int("replicas", 10, "seeds for the replicate subcommand")
	showMetrics := flag.Bool("metrics", false, "print the final metrics registry after the run")
	sloAudit := flag.Bool("slo", false, "audit the run with the SLO engine and print the end-of-run conformance report")
	flightPath := flag.String("flight", "", "write the latest flight-recorder snapshot (JSONL) to this file after the run (implies -slo)")
	explainPath := flag.String("explain", "", "record a rejection diagnosis per failed admission and write them (JSONL) to this file after the run")
	ledgerPath := flag.String("ledger", "", "account every run on the utilization ledger and write the per-tenant snapshot (JSONL) to this file after the run")
	tenants := flag.String("tenants", "", "comma-separated tenant names cycled over arrivals for per-tenant ledger accounting (empty = unattributed)")
	classes := flag.Int("classes", 1, "priority classes per tenant for the -tenants cycle")
	debugAddr := flag.String("debug-addr", "", "serve the observability debug endpoint (/metrics /trace /explain ...) on this address while the run executes")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof on the debug endpoint (requires -debug-addr)")
	flag.Parse()
	replicaCount = *replicas
	plotFigures = *plot
	csvFigures = *csvOut
	cfg.Malleable = *malleable
	if *flightPath != "" {
		*sloAudit = true
	}
	if *pprofFlag && *debugAddr == "" {
		fmt.Fprintln(os.Stderr, "tunesim: -pprof requires -debug-addr (profiles are served on the debug endpoint)")
		os.Exit(2)
	}
	var observer *obs.Observer
	var auditor *slo.Engine
	var recorder *slo.Recorder
	if *showMetrics || *sloAudit || *debugAddr != "" {
		// The flight snapshot holds the last 4096 spans and 4096 events.
		observer = obs.New(obs.Config{
			Tracing:      *sloAudit,
			SpanRingSize: 4096,
			EnablePprof:  *pprofFlag,
		})
		cfg.Obs = observer
		if *sloAudit {
			recorder = slo.NewRecorder(observer.Tracer(), observer)
			auditor = slo.New(slo.Options{Registry: observer.Reg, Recorder: recorder})
			cfg.SLO = auditor
		}
	}
	// Admission forensics: the rejection recorder (-explain, and always on
	// when a debug endpoint serves /explain) feeds the run through
	// Config.Forensics.
	var forRec *forensics.Recorder
	if *explainPath != "" || *debugAddr != "" {
		forRec = forensics.NewRecorder(0)
		cfg.Forensics = forRec
		forRec.Mount(observer) // nil-safe
	}
	// Utilization ledger: per-tenant capacity accounting, served at
	// /ledger and written as the end-of-run JSONL artifact.  Totals
	// accumulate across every run of the invocation (sweeps included).
	var ld *ledger.Ledger
	if *ledgerPath != "" || *debugAddr != "" {
		ld = ledger.New(ledger.Config{Capacity: cfg.Procs})
		cfg.Ledger = ld
		ld.Mount(observer) // nil-safe
	}
	if *tenants != "" {
		cfg.Tenants = &workload.TenantCycle{
			Tenants: strings.Split(*tenants, ","),
			Classes: *classes,
		}
	}
	if *debugAddr != "" {
		addr, srv, err := obs.Serve(observer.Handler(), *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tunesim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s (/metrics /trace /spans /explain /healthz)\n\n", addr)
	}
	switch *tiebreak {
	case "paper":
	case "firstfit":
		cfg.Opts = &core.Options{TieBreak: core.TieBreakFirstFit}
	case "minarea":
		cfg.Opts = &core.Options{TieBreak: core.TieBreakMinArea}
	case "utilfirst":
		cfg.Opts = &core.Options{TieBreak: core.TieBreakUtilFirst}
	default:
		fmt.Fprintf(os.Stderr, "tunesim: unknown tiebreak %q\n", *tiebreak)
		os.Exit(2)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tunesim [flags] fig5a|fig5b|fig5c|fig5d|fig6a|fig6b|exta|extq|extr|extb|all|point|replicate|gantt")
		os.Exit(2)
	}
	if err := run(cfg, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "tunesim:", err)
		os.Exit(1)
	}
	if err := finishSLO(os.Stdout, auditor, recorder, *flightPath); err != nil {
		fmt.Fprintln(os.Stderr, "tunesim:", err)
		os.Exit(1)
	}
	if err := finishForensics(os.Stdout, forRec, *explainPath); err != nil {
		fmt.Fprintln(os.Stderr, "tunesim:", err)
		os.Exit(1)
	}
	if err := finishLedger(os.Stdout, ld, *ledgerPath); err != nil {
		fmt.Fprintln(os.Stderr, "tunesim:", err)
		os.Exit(1)
	}
	if err := finishObs(os.Stdout, observer, *showMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "tunesim:", err)
		os.Exit(1)
	}
	if auditor != nil && !auditor.Report().Conformant() {
		os.Exit(1) // the hard invariant broke: fail the run visibly
	}
}

// finishSLO prints the end-of-run conformance report (the -slo output) and
// writes the flight-recorder snapshot file (the -flight output).  A nil
// auditor is a no-op.
func finishSLO(out io.Writer, e *slo.Engine, rec *slo.Recorder, flightPath string) error {
	if e == nil {
		return nil
	}
	fmt.Fprintln(out)
	if err := e.WriteReport(out); err != nil {
		return err
	}
	if flightPath == "" {
		return nil
	}
	snap := rec.Last()
	if snap == nil {
		// Nothing anomalous happened: cut a manual snapshot so the
		// artifact still captures the rings at end of run.
		snap = rec.Trigger(slo.TriggerManual, 0, 0, "end-of-run snapshot (no anomaly triggered)")
	}
	if err := obs.CreateArtifact(flightPath, snap.WriteJSONL); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote flight snapshot (%s, %d spans, %d events) to %s\n",
		snap.Kind, len(snap.Spans), len(snap.Events), flightPath)
	if snap.Kind != slo.TriggerManual {
		fmt.Fprintf(out, "replay verdict: %s\n", slo.Replay(snap))
	}
	return nil
}

// finishForensics prints the admission-forensics summary (the -explain
// output) and writes the rejections artifact.  A nil recorder
// is a no-op.
func finishForensics(out io.Writer, rec *forensics.Recorder, explainPath string) error {
	if rec == nil {
		return nil
	}
	var suggested, verified, refuted int
	causes := map[core.Constraint]int{}
	records := rec.Records()
	for _, r := range records {
		if r.Diag.Suggestion != nil {
			suggested++
		}
		if r.Verified != nil {
			if *r.Verified {
				verified++
			} else {
				refuted++
			}
		}
		for _, cd := range r.Diag.Chains {
			if !cd.Schedulable {
				causes[cd.Constraint]++
			}
		}
	}
	fmt.Fprintf(out, "\nadmission forensics: %d diagnoses retained (%d recorded, %d evicted)\n",
		len(records), rec.Total(), rec.Dropped())
	fmt.Fprintf(out, "  failed chains by cause: width=%d deadline=%d capacity=%d\n",
		causes[core.ConstraintWidth], causes[core.ConstraintDeadline], causes[core.ConstraintCapacity])
	fmt.Fprintf(out, "  counterfactual suggestions: %d emitted, %d verified admitting, %d refuted\n",
		suggested, verified, refuted)
	if explainPath != "" {
		if err := obs.CreateArtifact(explainPath, rec.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote rejection-cause artifact (%d records) to %s\n", len(records), explainPath)
	}
	return nil
}

// finishLedger prints the per-tenant accounting table and writes the
// ledger snapshot as JSONL (the -ledger output).  A nil ledger is a no-op.
func finishLedger(out io.Writer, ld *ledger.Ledger, path string) error {
	if ld == nil {
		return nil
	}
	snap := ld.Snapshot()
	fmt.Fprintf(out, "\nutilization ledger: reserved=%.1f realized=%.1f waste=%.1f\n",
		snap.TotalReservedArea, snap.TotalRealizedArea, snap.TotalWasteArea())
	fmt.Fprintf(out, "%-16s %5s %12s %12s %12s %8s %9s %9s\n",
		"tenant", "class", "reserved", "realized", "waste", "commits", "completes", "rejects")
	for _, t := range snap.Totals {
		name := t.Tenant
		if name == "" {
			name = "(unattributed)"
		}
		fmt.Fprintf(out, "%-16s %5d %12.1f %12.1f %12.1f %8d %9d %9d\n",
			name, t.Class, t.ReservedArea, t.RealizedArea, t.Waste(),
			t.Commits, t.Completions, t.Rejections)
	}
	if path == "" {
		return nil
	}
	if err := obs.CreateArtifact(path, snap.WriteJSONL); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote ledger snapshot (%d tenant streams) to %s\n", len(snap.Totals), path)
	return nil
}

// finishObs prints the final metrics table on out when showMetrics is set
// (the -metrics output).  A nil observer is a no-op.
func finishObs(out io.Writer, o *obs.Observer, showMetrics bool) error {
	if o == nil || !showMetrics {
		return nil
	}
	fmt.Fprintln(out, "\nmetrics:")
	return o.Reg.WriteTable(out)
}

// plotFigures renders ASCII charts after each figure table when set.
var plotFigures bool

// replicaCount is the seed count for the replicate subcommand.
var replicaCount int

// csvFigures selects CSV output for figure subcommands.
var csvFigures bool

// ganttDemo admits a short burst of tunable jobs and draws the resulting
// processor-time schedule (holes show as dots).
func ganttDemo(out *os.File, cfg experiments.Config) error {
	n := cfg.Jobs
	if n > 12 {
		n = 12
	}
	arbCfg := fed.Config{Procs: cfg.Procs, Options: cfg.Opts}
	if cfg.Obs != nil {
		arbCfg.Observer = cfg.Obs.DecisionObserver(nil)
	}
	// The clock is never advanced: the chart keeps the full history.
	arb, err := fed.New(arbCfg)
	if err != nil {
		return err
	}
	var placements []*core.Placement
	admitted, rejected := 0, 0
	for _, job := range cfg.Job.Stream(workload.NewPoisson(cfg.MeanInterarrival, cfg.Seed), n, workload.Tunable) {
		g, err := arb.Negotiate(job)
		if err != nil {
			rejected++
			continue
		}
		admitted++
		placements = append(placements, &g.Placement)
	}
	asn, err := core.AssignProcessors(cfg.Procs, placements)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d arrivals: %d admitted, %d rejected (job IDs mod 10 shown)\n\n", n, admitted, rejected)
	return core.RenderGantt(out, cfg.Procs, asn, 96)
}

func run(cfg experiments.Config, what string) error {
	out := os.Stdout
	fig := func(f experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		if csvFigures {
			return experiments.WriteFigureCSV(out, f)
		}
		if err := experiments.WriteFigure(out, f, cfg); err != nil {
			return err
		}
		if plotFigures {
			fmt.Fprintln(out)
			return experiments.PlotFigure(out, f)
		}
		return nil
	}
	grid := func(g experiments.Grid, err error) error {
		if err != nil {
			return err
		}
		if csvFigures {
			return experiments.WriteGridCSV(out, g)
		}
		return experiments.WriteGrid(out, g, cfg)
	}
	switch what {
	case "fig5a":
		return fig(experiments.Fig5a(cfg, nil))
	case "fig5b":
		return fig(experiments.Fig5b(cfg, nil))
	case "fig5c":
		return fig(experiments.Fig5c(cfg, nil))
	case "fig5d":
		return fig(experiments.Fig5d(cfg, nil))
	case "fig6a":
		return grid(experiments.Fig6(cfg, nil, nil, false))
	case "fig6b":
		return grid(experiments.Fig6(cfg, nil, nil, true))
	case "extr":
		results, err := experiments.ChurnRun(cfg, nil)
		if err != nil {
			return err
		}
		return experiments.WriteChurn(out, results, cfg, nil)
	case "exta":
		cmps, err := experiments.RunBursty(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteBursty(out, cmps, cfg)
	case "extb":
		be, reserved, err := experiments.BestEffortComparison(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteBestEffort(out, be, reserved, cfg)
	case "extq":
		pts, err := experiments.QualitySweep(cfg, nil, 0.5, 0.7)
		if err != nil {
			return err
		}
		return experiments.WriteQuality(out, pts, cfg)
	case "all":
		for _, w := range []string{"fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "extq", "extr", "extb", "exta"} {
			if err := run(cfg, w); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	case "gantt":
		return ganttDemo(out, cfg)
	case "replicate":
		return experiments.WriteReplicated(out, cfg, replicaCount)
	case "point":
		for _, sys := range workload.Systems {
			r, err := experiments.Run(cfg, sys)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-8s admitted=%d rejected=%d util=%.3f horizon=%.1f chainShare=%v meanSlack=%.1f\n",
				sys, r.Admitted, r.Rejected, r.Utilization, r.Horizon, r.ChainShare, r.MeanLateSlack)
		}
		fmt.Fprintf(out, "offered load: %.2f\n", cfg.OfferedLoad())
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
}
