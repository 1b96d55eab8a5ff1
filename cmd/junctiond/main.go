// Command junctiond demonstrates the tunable junction-detection
// application (Sections 3.2/4.3 of the paper) and reproduces the content of
// the paper's Figure 2: two configurations with different sampling
// granularities and search distances trading step-1 resources against
// step-3 resources at comparable output quality.
//
// With -wal-dir the process additionally serves a durable admission
// plane: committed grants are journaled to an append-only WAL in that
// directory, and a restart recovers every acknowledged reservation
// before accepting new negotiations.
//
// Usage:
//
//	junctiond [-size N] [-rects K] [-workers W] [-seed S] [-faults]
//	          [-debug-addr HOST:PORT] [-pprof]
//	          [-wal-dir DIR] [-admit-addr HOST:PORT] [-wal-sync POLICY]
//	          [-snapshot-every N] [-admit-procs P]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"milan/internal/calypso"
	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/junction"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
	"milan/internal/obs/telemetry"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
)

// The -latency-envelope baseline is the trajectory row whose benchmark name
// contains envelopeMatch, the one-shard plane junctiond serves, and each
// phase may take envelopeSlack times that row's latency.
const (
	envelopeMatch = "ShardedAdmit/shards=1"
	envelopeSlack = 3.0
)

// lastRuntime holds the most recently constructed Calypso runtime so the
// /healthz "calypso" readiness check can inspect its worker health.
var lastRuntime atomic.Pointer[calypso.Runtime]

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "junctiond: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command.  What it returns is what shutting the admission
// service down failed with — the journal's final flush among it — since
// everything that fails before that exits on the spot.
func run() (err error) {
	size := flag.Int("size", 256, "image width and height")
	rects := flag.Int("rects", 6, "planted rectangles (junction sources)")
	workers := flag.Int("workers", 4, "Calypso workers (processors)")
	seed := flag.Int64("seed", 1, "scene seed")
	faults := flag.Bool("faults", false, "inject worker faults to exercise eager scheduling")
	radius := flag.Float64("radius", 4, "match radius for quality scoring")
	video := flag.Int("video", 0, "process a synthetic video of N frames instead of a single image")
	debugAddr := flag.String("debug-addr", "", "serve the observability debug endpoint (/metrics, /trace, /spans) on this address")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof on the debug endpoint (requires -debug-addr)")
	walDir := flag.String("wal-dir", "", "serve a durable admission plane journaled to this directory")
	admitAddr := flag.String("admit-addr", "127.0.0.1:0", "listen address for the durable admission service (requires -wal-dir)")
	walSync := flag.String("wal-sync", "always", "WAL sync policy: always | every-n | never (requires -wal-dir)")
	snapshotEvery := flag.Int("snapshot-every", 1024, "WAL records between snapshot compactions (requires -wal-dir)")
	admitProcs := flag.Int("admit-procs", 0, "admission-plane processors (0 = -workers)")
	nodeName := flag.String("node", "", "node identity in span IDs, so traces from several nodes stitch in milanmon (default junction-<pid>)")
	traceSample := flag.Float64("trace-sample", 0, "head-based trace sampling target in traces/sec (0 = trace everything)")
	latEnvelope := flag.String("latency-envelope", "", "arm the latency-regression sentinel from this BENCH_trajectory.jsonl baseline (requires -wal-dir)")
	serveFlag := flag.Bool("serve", false, "keep serving after the demo run until SIGINT/SIGTERM (multi-process clusters)")
	flag.Parse()

	if *pprofFlag && *debugAddr == "" {
		log.Fatal("junctiond: -pprof requires -debug-addr (profiles are served on the debug endpoint)")
	}
	node := *nodeName
	if node == "" {
		node = fmt.Sprintf("junction-%d", os.Getpid())
	}
	var observer *obs.Observer
	var ld *ledger.Ledger
	if *debugAddr != "" {
		observer = obs.New(obs.Config{EnablePprof: *pprofFlag, Tracing: true})
		// Utilization ledger over the pipeline's work units: each
		// configuration bills to its own tenant, each pipeline step to its
		// own class, so /ledger shows the Figure-2 trade (step-1 vs step-3
		// allocation) as per-tenant reserved area.
		ld = ledger.New(ledger.Config{Capacity: *workers})
		ld.Mount(observer)
		// Readiness: the debug endpoint reports 503 until a runtime exists
		// and while every worker of the latest runtime has crashed.
		observer.AddHealthCheck("calypso", func() error {
			rt := lastRuntime.Load()
			if rt == nil {
				return fmt.Errorf("no runtime constructed yet")
			}
			if m := rt.Metrics(); *workers > 0 && m.Crashes >= *workers {
				return fmt.Errorf("all %d workers crashed", *workers)
			}
			return nil
		})
		// Cluster-unique span identity: seed the high ID bits from the
		// node name so traces from different junctiond processes merge
		// without collisions in milanmon.
		observer.Tracer().SeedIDs(telemetry.NodeIDBase(node))
		if *traceSample > 0 {
			observer.Tracer().SetSampling(*traceSample)
		}
		addr, srv, err := obs.Serve(observer.Handler(), *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s (/metrics /trace /spans /healthz)\n\n", addr)
	}

	if *walDir != "" {
		srv, plane, eng, serr := serveAdmission(observer, *latEnvelope, admitConfig{
			dir: *walDir, addr: *admitAddr, sync: *walSync,
			snapshotEvery: *snapshotEvery,
			procs:         pickProcs(*admitProcs, *workers),
		})
		if serr != nil {
			log.Fatal(serr)
		}
		defer func() { err = errors.Join(err, closeAdmission(srv, plane)) }()
		if eng != nil {
			// The regression sentinel (and every other burn objective)
			// needs a periodic clock: tick the engine once a second.
			start := time.Now()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			done := make(chan struct{})
			defer close(done)
			go func() {
				for {
					select {
					case <-tick.C:
						eng.Tick(time.Since(start).Seconds())
					case <-done:
						return
					}
				}
			}()
		}
	}

	if *video > 0 {
		if err := runVideo(*video, *workers, *seed, *radius); err != nil {
			log.Fatal(err)
		}
		return nil
	}

	spec := junction.SynthSpec{W: *size, H: *size, Rectangles: *rects, Noise: 0.02, Seed: *seed}
	im, truth := junction.Synthesize(spec)
	fmt.Printf("scene: %dx%d, %d rectangles, %d ground-truth junctions\n\n",
		*size, *size, *rects, len(truth))

	configs := []struct {
		name   string
		params junction.Params
	}{
		{"fine", junction.FineParams()},
		{"coarse", junction.CoarseParams()},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tgranularity\tsearch-dist\tstep1-work\tstep2-work\tstep3-work\tregions\tdetected\tprecision\trecall\tF1")
	var ledgerClock float64
	for _, c := range configs {
		var plan *calypso.FaultPlan
		if *faults {
			plan = &calypso.FaultPlan{TransientProb: 0.15, CrashProb: 0.02, MaxCrashes: *workers - 1, Seed: *seed}
		}
		cfg := calypso.Config{Workers: *workers, Faults: plan}
		if observer != nil {
			cfg.Hooks = observer.CalypsoHooks()
		}
		rt, err := calypso.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		lastRuntime.Store(rt)
		res, err := junction.RunScored(rt, im, c.params, truth, *radius)
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		q := res.Quality
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\n",
			c.name, c.params.Granularity, c.params.SearchDistance,
			res.Costs[0].Work, res.Costs[1].Work, res.Costs[2].Work,
			len(res.Regions), len(res.Junctions), q.Precision, q.Recall, q.F1)
		ledgerClock = recordPipeline(ld, c.name, res, *workers, ledgerClock)
		if *faults {
			m := rt.Metrics()
			defer fmt.Printf("%s runtime under faults: %d executions / %d tasks, %d duplicates, %d transients, %d crashes\n",
				c.name, m.Executions, m.Tasks, m.Duplicates, m.Transients, m.Crashes)
		}
	}
	tw.Flush()
	fmt.Println("\nFigure 2 reading: the coarse configuration spends several times less in")
	fmt.Println("the sampling step and compensates with a much larger junction-computation")
	fmt.Println("allocation, at comparable output quality.")

	if *serveFlag {
		fmt.Println("\nserving (SIGINT/SIGTERM to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	return nil
}

// recordPipeline accounts one configuration's pipeline run on the
// utilization ledger: each step is entered as a committed-and-realized
// rectangle of workers processors lasting work/workers time units, billed
// to tenant name at class = step index.  Returns the advanced clock.  A
// nil ledger records nothing.
func recordPipeline(ld *ledger.Ledger, name string, res *junction.Result, workers int, clock float64) float64 {
	if ld == nil || workers <= 0 {
		return clock
	}
	for step, c := range res.Costs {
		d := float64(c.Work) / float64(workers)
		if d <= 0 {
			continue
		}
		pl := &core.Placement{Tasks: []core.TaskPlacement{{
			Task: step, Start: clock, Finish: clock + d, Procs: workers,
		}}}
		k := ledger.Key{Tenant: name, Class: step}
		ld.RecordCommitKeyed(k, pl)
		ld.RecordCompletion(k, pl)
		clock += d
	}
	ld.Advance(clock)
	return clock
}

// runVideo processes a moving synthetic sequence with both configurations,
// printing per-frame quality — the paper's live-feed scenario.
func runVideo(frames, workers int, seed int64, radius float64) error {
	spec := junction.DefaultVideoSpec()
	spec.Frames = frames
	spec.Seed = seed
	imgs, truths, err := junction.SynthesizeVideo(spec)
	if err != nil {
		return err
	}
	fmt.Printf("video: %d frames of %dx%d, %d moving rectangles\n\n", frames, spec.W, spec.H, spec.Rectangles)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "frame	truth	fine-F1	fine-step3	coarse-F1	coarse-step3")
	var fineSum, coarseSum float64
	for f := range imgs {
		row := []string{fmt.Sprint(f), fmt.Sprint(len(truths[f]))}
		for i, p := range []junction.Params{junction.FineParams(), junction.CoarseParams()} {
			rt, err := calypso.New(calypso.Config{Workers: workers})
			if err != nil {
				return err
			}
			res, err := junction.RunScored(rt, imgs[f], p, truths[f], radius)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3f", res.Quality.F1), fmt.Sprint(res.Costs[2].Work))
			if i == 0 {
				fineSum += res.Quality.F1
			} else {
				coarseSum += res.Quality.F1
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Printf("\nmean F1: fine %.3f, coarse %.3f\n", fineSum/float64(frames), coarseSum/float64(frames))
	return nil
}

type admitConfig struct {
	fs              vfs.FS // nil: the real filesystem
	dir, addr, sync string
	snapshotEvery   int
	procs           int
}

func pickProcs(admitProcs, workers int) int {
	if admitProcs > 0 {
		return admitProcs
	}
	if workers > 0 {
		return workers
	}
	return 1
}

// armLatency serves the SLO engine's latency plane on /latency.  Given a
// trajectory file (-latency-envelope) it first arms the plane's regression
// sentinel from that file's envelopeMatch row at envelopeSlack.
func armLatency(observer *obs.Observer, lp *latency.Plane, trajectory string) error {
	if trajectory != "" {
		env, err := latency.EnvelopeFromTrajectory(trajectory, envelopeMatch, envelopeSlack)
		if err != nil {
			return fmt.Errorf("junctiond: latency envelope: %w", err)
		}
		lp.SetEnvelope(env)
		fmt.Printf("latency envelope: %dns for route, probe, plan, reserve and ack; journal and e2e disarmed (baseline %s x%.3g slack)\n\n",
			env.Phase[0], envelopeMatch, envelopeSlack)
	}
	observer.Handle("/latency", lp.Handler(), "admission latency anatomy: phase quantiles, envelope, tail exemplars (JSON)")
	return nil
}

// serveAdmission opens (recovering) the durable admission plane on the
// real filesystem and serves it over the qosnet wire protocol.  When an
// observer is attached, the durability instruments land in its registry
// (/metrics exposes append latency, fsync counts, snapshot sizes and
// recovery replay time), admission requests are traced and timed end to
// end on the SLO engine's latency plane (armed from trajectory, when
// given), and the engine audits every decision (qosnet.Instruments).
func serveAdmission(observer *obs.Observer, trajectory string, cfg admitConfig) (*qosnet.Server, *durable.Plane, *slo.Engine, error) {
	pol, err := durable.ParseSyncPolicy(cfg.sync)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("junctiond: %w", err)
	}
	var eng *slo.Engine
	if observer != nil {
		// The engine judges admission latency off its own plane; a
		// regression burn on it cuts a flight snapshot.
		eng = slo.New(slo.Options{Registry: observer.Reg, Recorder: slo.NewRecorder(observer.Tracer(), nil)})
		if err := armLatency(observer, eng.Latency(), trajectory); err != nil {
			return nil, nil, nil, err
		}
	}
	fs := cfg.fs
	if fs == nil {
		fs = vfs.OS{}
	}
	if err := fs.MkdirAll(cfg.dir); err != nil {
		return nil, nil, nil, fmt.Errorf("junctiond: wal dir: %w", err)
	}
	var met *durable.Metrics
	if observer != nil {
		met = durable.NewMetrics(observer.Reg)
	}
	plane, rec, err := durable.OpenPlane(durable.Config{
		FS: fs, Dir: cfg.dir, Procs: cfg.procs,
		Store:   durable.StoreOptions{Sync: pol, SnapshotEvery: cfg.snapshotEvery},
		Metrics: met,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("junctiond: open admission plane: %w", err)
	}
	srv, err := qosnet.ListenAndServe(plane, cfg.addr)
	if err != nil {
		plane.Close()
		return nil, nil, nil, fmt.Errorf("junctiond: %w", err)
	}
	if eng != nil {
		eng.Mount(observer)
		start := time.Now()
		srv.Instrument(qosnet.Instruments{Tracer: observer.Tracer(), Latency: eng.Latency(), OnDecision: func(j core.Job, g *qos.Grant, err error) {
			if err != nil || g == nil {
				eng.JobRejected()
				return
			}
			deadline := 0.0
			if g.Chain >= 0 && g.Chain < len(j.Chains) {
				if tasks := j.Chains[g.Chain].Tasks; len(tasks) > 0 {
					deadline = tasks[len(tasks)-1].Deadline
				}
			}
			eng.JobAdmitted(j.ID, j.Trace, time.Since(start).Seconds(), deadline, g.Placement.Finish())
		}})
	}
	fmt.Printf("admission plane: %s (wal %s, sync=%s, recovered lsn=%d records=%d grants=%d replay=%s)\n\n",
		srv.Addr(), cfg.dir, pol, rec.State.LSN, rec.Records, len(plane.Grants()), rec.ReplayDuration)
	return srv, plane, eng, nil
}

// closeAdmission stops serving, then closes the plane, whose final flush is
// what makes the last records of a -wal-sync every-n journal durable: a
// failure of either is returned, not dropped.
func closeAdmission(srv *qosnet.Server, plane *durable.Plane) error {
	return errors.Join(srv.Close(), plane.Close())
}
