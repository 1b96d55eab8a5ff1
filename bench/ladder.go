package main

import (
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// rungResult is one in-process rung's replay of the stream prefix.
type rungResult struct {
	p50         float64 // Negotiate, us
	allocsPerOp float64
	digest      uint64
	orc         *oracle
}

// replay pushes the warm-up and then jobs jobs of the stream through a in one
// closed loop, timing each Negotiate exactly as the served passes do.  marked,
// when set, runs between the warm-up and the timed lap.
func replay(a admitter, s *spec, seed int64, jobs int, b *buffers, marked func()) (rungResult, error) {
	st, err := newStream(s, seed)
	if err != nil {
		return rungResult{}, err
	}
	feed, orc := feeder{st: st}, newOracle(s, true)
	clients := []admitter{a}
	feed.fill(&b.lap, s.Warmup)
	if _, err := runLap(clients, &b.lap, 0, 0); err != nil {
		return rungResult{}, err
	}
	orc.verify(&b.lap)
	orc.mark()
	if marked != nil {
		marked()
	}
	feed.fill(&b.lap, jobs)
	use, err := metered(func() (time.Duration, error) { return runLap(clients, &b.lap, 0, 0) })
	if err != nil {
		return rungResult{}, err
	}
	orc.verify(&b.lap)
	b.lat = b.lat[:0]
	for i := range b.lap.jobs {
		b.lat = append(b.lat, b.lap.done[i]-b.lap.sent[i])
	}
	return rungResult{
		p50:         nsQuantilesUs(b.lat, 0.5)[0],
		allocsPerOp: float64(use.mallocs) / float64(jobs),
		digest:      orc.digest,
		orc:         orc,
	}, nil
}

// timedCore drives the core rung, timing Plan, Commit and Observe one by one.
type timedCore struct {
	r                     coreRung
	plan, commit, observe []int64
	both                  []int64
	segments              int64
}

func (c *timedCore) Negotiate(job Job) (*Grant, error) {
	c.segments += int64(c.r.segments())
	t0 := time.Now()
	pl, ok := c.r.plan(job)
	t1 := time.Now()
	c.plan = append(c.plan, int64(t1.Sub(t0)))
	if !ok {
		c.both = append(c.both, int64(t1.Sub(t0)))
		return nil, errRejected
	}
	err := c.r.commit(job, pl)
	t2 := time.Now()
	c.commit = append(c.commit, int64(t2.Sub(t1)))
	c.both = append(c.both, int64(t2.Sub(t0)))
	if err != nil {
		return nil, err
	}
	return c.r.grant(job, pl), nil
}

func (c *timedCore) Observe(now float64) error {
	t0 := time.Now()
	c.r.observe(now)
	c.observe = append(c.observe, int64(time.Since(t0)))
	return nil
}

func (c *timedCore) reset() {
	c.plan, c.commit, c.observe, c.both, c.segments = c.plan[:0], c.commit[:0], c.observe[:0], c.both[:0], 0
}

// completing tells a rung when its granted jobs finish, as the simulated
// clock passes them.  The bookkeeping happens inside Observe, which the loop
// does not time.
type completing struct {
	admitter
	completed func(jobID int, now float64)
	fresh     []*Grant
	running   finishHeap
}

func (c *completing) Negotiate(job Job) (*Grant, error) {
	g, err := c.admitter.Negotiate(job)
	if g != nil {
		c.fresh = append(c.fresh, g)
	}
	return g, err
}

func (c *completing) Observe(now float64) error {
	for _, g := range c.fresh {
		heap.Push(&c.running, g)
	}
	c.fresh = c.fresh[:0]
	for len(c.running) > 0 && c.running[0].Finish() <= now {
		g := heap.Pop(&c.running).(*Grant)
		c.completed(g.JobID, g.Finish())
	}
	return c.admitter.Observe(now)
}

type finishHeap []*Grant

func (h finishHeap) Len() int           { return len(h) }
func (h finishHeap) Less(i, j int) bool { return h[i].Finish() < h[j].Finish() }
func (h finishHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *finishHeap) Push(x any)        { *h = append(*h, x.(*Grant)) }
func (h *finishHeap) Pop() any {
	old := *h
	g := old[len(old)-1]
	*h = old[:len(old)-1]
	return g
}

// layers is the traced run of one workload: the ladder of in-process rungs
// and the traced passes through the served stack, on one stream prefix.
type layers struct {
	s       *spec
	seed    int64
	jobs    int // stream prefix each rung and pass replays after the warm-up
	walRoot string
	// traceDir is where the traced pass's spans are written at the end.
	traceDir string
	bufs     buffers

	attempted, failed int
	failures          []string
	out               []measure
	digests           map[string]uint64
}

func (l *layers) add(name, unit string, v float64) {
	l.out = append(l.out, measure{Name: name, Unit: unit, Value: v})
}

func (l *layers) account(what string, attempted, failed int, failures []string) {
	l.attempted += attempted
	l.failed += failed
	for _, f := range failures {
		l.failures = append(l.failures, what+": "+f)
	}
}

// ladder replays the prefix up the in-process rungs.  Each rung adds one
// layer over the one below, so a layer's own time is the difference between
// adjacent rungs' medians.  It returns each rung's allocations per job.
func (l *layers) ladder() (map[string]float64, error) {
	p50, allocs := map[string]float64{}, map[string]float64{}
	jobs := float64(l.jobs)

	tc := &timedCore{r: newCoreRung(l.s.Procs)}
	var before coreCounts
	// The warm-up's timings and counts are dropped when the timed lap starts.
	coreRes, err := replay(tc, l.s, l.seed, l.jobs, &l.bufs, func() { tc.reset(); before = tc.r.counts() })
	if err != nil {
		return nil, err
	}
	after := tc.r.counts()
	l.account("core", coreRes.orc.attempted, coreRes.orc.failed, coreRes.orc.failures)
	l.digests["core"] = coreRes.digest
	p50["core"] = nsQuantilesUs(tc.both, 0.5)[0]
	l.add("core.plan_us", "us", nsQuantilesUs(tc.plan, 0.5)[0])
	l.add("core.commit_us", "us", nsQuantilesUs(tc.commit, 0.5)[0])
	l.add("core.observe_us", "us", nsQuantilesUs(tc.observe, 0.5)[0])
	l.add("core.profile_segments", "count", float64(tc.segments)/jobs)
	l.add("core.chains_tried_per_op", "count", float64(after.chainsTried-before.chainsTried)/jobs)
	l.add("core.holes_probed_per_op", "count", float64(after.holesProbed-before.holesProbed)/jobs)
	l.add("core.index_rebuilds_per_op", "count", float64(after.indexRebuilds-before.indexRebuilds)/jobs)
	l.add("core.descent_steps_per_op", "count", float64(after.descentSteps-before.descentSteps)/jobs)

	results := map[string]rungResult{}
	for _, name := range rungNames {
		dir := filepath.Join(l.walRoot, l.s.Name+"-"+name)
		r, err := newRung(name, l.s.Procs, dir)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", name, err)
		}
		var a admitter = r
		if r.completed != nil {
			a = &completing{admitter: r, completed: r.completed}
		}
		res, err := replay(a, l.s, l.seed, l.jobs, &l.bufs, nil)
		if cerr := r.close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", name, err)
		}
		l.account(name, res.orc.attempted, res.orc.failed, res.orc.failures)
		results[name], p50[name], allocs[name] = res, res.p50, res.allocsPerOp
		// fed_s8 places on 8 small machines and shed refuses jobs, so only
		// the other rungs must decide as core does.
		if name != "fed_s8" && name != "shed" {
			l.digests[name] = res.digest
		}
	}
	l.add("qos.negotiate_us", "us", p50["qos"])
	l.add("qos.self_us", "us", p50["qos"]-p50["core"])
	l.add("qos.allocs_per_op", "count", allocs["qos"])
	l.add("fed.negotiate_us_s1", "us", p50["fed_s1"])
	l.add("fed.negotiate_us_s8", "us", p50["fed_s8"])
	l.add("fed.admit_ratio_s8", "ratio", results["fed_s8"].orc.admitRatio())
	l.add("fed.utilization_s8", "ratio", results["fed_s8"].orc.utilization())
	shed := results["shed"].orc
	l.add("shed.negotiate_us", "us", p50["shed"])
	l.add("shed.self_us", "us", p50["shed"]-p50["qos"])
	l.add("shed.shed_ratio", "ratio", float64(shed.shed)/float64(shed.offered))
	l.add("shed.forwarded_admit_ratio", "ratio", float64(shed.granted)/float64(shed.offered-shed.shed))
	l.add("durable.negotiate_us_mem", "us", p50["durable_mem"])
	l.add("durable.negotiate_us_os_never", "us", p50["durable_os_never"])
	l.add("durable.negotiate_us_os_always", "us", p50["durable_os_always"])
	l.add("durable.self_us", "us", p50["durable_os_never"]-p50["qos"])
	return allocs, nil
}

// served drives the stream prefix through the served stack: untraced (the
// ladder's top rung), traced with one client, and traced with two, so that
// the plane wrapper's extra time under two callers is the wait for the plane;
// an open-loop workload adds a traced pass in its own load shape.
func (l *layers) served(allocs map[string]float64) error {
	jobs := float64(l.jobs)
	drive := func(what string, clients int, openRate float64, tr *tracer, pings int) (passResult, error) {
		p := pass{
			s: l.s, seed: l.seed, dir: filepath.Join(l.walRoot, l.s.Name+"-"+what),
			clients: clients, openRate: openRate, tr: tr, jobs: l.jobs, pings: pings,
		}
		res, err := p.run(&l.bufs)
		if err != nil {
			return res, fmt.Errorf("%s pass: %w", what, err)
		}
		l.account(what, res.attempted, res.failed, res.failures)
		return res, nil
	}
	p50Of := func(ns []int64) float64 {
		if len(ns) == 0 {
			return 0
		}
		return nsQuantilesUs(ns, 0.5)[0]
	}

	plain, err := drive("served", 1, 0, nil, 2000)
	if err != nil {
		return err
	}
	one := newTracer()
	traced, err := drive("traced", 1, 0, one, 0)
	if err != nil {
		return err
	}
	two := newTracer()
	if _, err := drive("traced-c2", 2, 0, two, 0); err != nil {
		return err
	}
	l.digests["served"], l.digests["traced"] = plain.digest, traced.digest

	// The fsync and the wire's own time are what an idle stack changes most
	// (every wake-up along the path is slower after an idle millisecond), and
	// their shares of the round-trip are what this ladder is read for.  On an
	// open loop the three therefore come from one traced pass in the
	// workload's own load shape, which also says how late the loop fired; a
	// closed loop has no schedule to be late for.
	seams, roundtrip, lag := one, plain.p50, 0.0
	if l.s.OpenRate > 0 {
		seams = newTracer()
		own, err := drive("traced-own", l.s.Clients, l.s.OpenRate, seams, 0)
		if err != nil {
			return err
		}
		roundtrip, lag = p50Of(seams.durations("qosnet.client")), own.lagP99
	}

	snapshots := one.durations("durable.snapshot")
	l.add("durable.fsync_us", "us", p50Of(seams.durations("vfs.sync")))
	l.add("durable.fsyncs_per_op", "count", float64(one.syncs)/jobs)
	l.add("durable.writes_per_op", "count", float64(one.writes)/jobs)
	l.add("durable.wal_bytes_per_op", "bytes", float64(one.walBytes)/jobs)
	l.add("durable.plane_wait_us", "us", p50Of(two.durations("durable.plane"))-p50Of(one.durations("durable.plane")))
	l.add("durable.snapshot_us", "us", p50Of(snapshots))
	l.add("durable.snapshots_per_kop", "count", float64(len(snapshots))/jobs*1000)
	l.add("durable.recover_ms", "ms", float64(traced.replay.Nanoseconds())/1e6)
	l.add("qosnet.roundtrip_us", "us", roundtrip)
	l.add("qosnet.self_us", "us", p50Of(seams.selfTimes("qosnet.client", "durable.plane")))
	l.add("qosnet.ping_us", "us", plain.pingP50)
	l.add("qosnet.wire_bytes_per_op", "bytes", float64(one.wireBytes.Load())/jobs)
	l.add("qosnet.allocs_per_op", "count", float64(plain.mallocs)/jobs-allocs["durable_os_"+l.s.Sync])
	l.add("loadgen.lag_p99_us", "us", lag)
	l.add("loadgen.gen_us_per_op", "us", float64(plain.gen.Nanoseconds())/1e3/(jobs+float64(l.s.Warmup)))
	lapP50 := func(l lapStats) float64 { return l.p50 }
	l.add("trace.overhead_ratio", "ratio", fastest(traced.each(lapP50))/fastest(plain.each(lapP50))-1)

	return seams.writeFile(filepath.Join(l.traceDir, "trace.jsonl"), l.s.Name, int64(l.s.Warmup))
}

// run climbs the ladder and the served passes, then requires every rung that
// sees the jobs in stream order on the whole machine to have decided alike.
func (l *layers) run() error {
	l.digests = map[string]uint64{}
	allocs, err := l.ladder()
	if err != nil {
		return err
	}
	if err := l.served(allocs); err != nil {
		return err
	}
	for name, d := range l.digests {
		if d != l.digests["core"] {
			l.failed++
			l.failures = append(l.failures, fmt.Sprintf("%s decided differently from core: digest %016x, core %016x", name, d, l.digests["core"]))
		}
	}
	return nil
}
