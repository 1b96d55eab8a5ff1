package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// measure is one named number with the per-round values behind it.
type measure struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Rounds []float64 `json:"rounds,omitempty"`
	// LapMedian, on a lap-wise metric, is the median over the laps Value is
	// reduced from, for a time or a rate the better twentieth: a change that slows only some laps (garbage
	// collection, compaction) moves this and not Value.
	LapMedian float64 `json:"lap_median,omitempty"`
	// Samples is the number of observations behind each lap's percentile.
	Samples int `json:"samples,omitempty"`
}

// pass describes one drive of a fresh served stack: which stream, how many
// clients in which loop, traced or not, and when to stop.
type pass struct {
	s        *spec
	seed     int64
	dir      string // fresh journal directory, removed afterwards
	clients  int
	openRate float64
	tr       *tracer // nil: the stack exactly as junctiond builds it
	// The pass stops once it has measured for budget, or measured jobs jobs,
	// whichever is set.
	budget time.Duration
	jobs   int
	// ref, when set, holds the pass to the in-process arbitrator's digest.
	ref *reference
	// pings, when positive, times that many Client.Ping round-trips on the
	// warm connection after the last lap.
	pings int
}

// lapStats is one measured lap.  Metrics are reduced over laps, so that a
// stall of the machine spoils the laps it lands on and nothing else.
type lapStats struct {
	perSecond, p50, p90 float64 // decisions within the limit per second; latency, us
	within              float64 // share of the lap's offered requests decided within the limit
	cpu, allocs         float64 // per decision: process CPU in us, heap allocations
}

// passResult is what one pass measured.
type passResult struct {
	setup              time.Duration
	wall               time.Duration // measured time, all laps
	offered, decisions int
	within             int // decisions that arrived within the limit
	mallocs            uint64
	laps               []lapStats
	// p50 and p99 pool every decision of the pass; the ladder compares rungs
	// by p50.
	p50, p99                float64
	admitRatio, utilization float64
	lagP99, pingP50         float64
	replay, gen             time.Duration
	digest                  uint64
	attempted, failed       int
	failures                []string
}

// each returns one statistic of every lap of the pass.
func (r *passResult) each(f func(lapStats) float64) []float64 {
	v := make([]float64, len(r.laps))
	for i, l := range r.laps {
		v[i] = f(l)
	}
	return v
}

// buffers are reused from pass to pass so that a round's garbage is the
// stack's own.
type buffers struct {
	lap           lap
	lat, lag, one []int64
}

// stackUp opens the served stack and connects n clients to it.
func stackUp(p *pass) (clients []admitter, down func() error, err error) {
	st, err := openServed(p.dir, p.s.Procs, p.s.Sync, p.tr)
	if err != nil {
		return nil, nil, err
	}
	var conns []client
	down = func() error {
		for _, c := range conns {
			c.Close()
		}
		return st.close()
	}
	for len(conns) < p.clients {
		c, err := dial(st.addr())
		if err != nil {
			down()
			return nil, nil, err
		}
		conns = append(conns, c)
		clients = append(clients, c)
	}
	return clients, down, nil
}

// run drives the pass: open the stack, push the warm-up prefix, measure lap
// by lap, close, reopen the journal, and hold every decision to the oracle.
func (p *pass) run(b *buffers) (res passResult, err error) {
	defer os.RemoveAll(p.dir)
	setupStart := time.Now()
	clients, down, err := stackUp(p)
	if err != nil {
		return res, err
	}
	defer down() // for the error returns; closing twice is harmless
	st, err := newStream(p.s, p.seed)
	if err != nil {
		return res, err
	}
	feed, orc := feeder{st: st}, newOracle(p.s, p.clients == 1)
	held := func() error {
		if p.ref == nil {
			return nil
		}
		want, err := p.ref.digestAt(feed.jobs)
		if err == nil && orc.digest != want {
			orc.fail("decision digest %016x after %d jobs, in-process arbitrator has %016x", orc.digest, feed.jobs, want)
		}
		return err
	}

	feed.fill(&b.lap, p.s.Warmup)
	if _, err := runLap(clients, &b.lap, 0, 0); err != nil {
		return res, err
	}
	res.setup = time.Since(setupStart)
	orc.verify(&b.lap)
	if err := held(); err != nil {
		return res, err
	}
	p.tr.reset()

	orc.mark()
	b.lat, b.lag = b.lat[:0], b.lag[:0]
	// A timed pass also runs until the laps behind admit_ratio and utilization
	// are in, however slow the machine, so that the two repeat for a seed.
	for n := 0; res.wall < p.budget || res.offered < p.jobs || (p.budget > 0 && n < p.s.CountLaps); n++ {
		size := p.s.Lap
		if p.jobs > 0 {
			size = min(size, p.jobs-res.offered)
		}
		feed.fill(&b.lap, size)
		lapSeed := p.seed*1_000_003 + int64(n)
		use, err := metered(func() (time.Duration, error) { return runLap(clients, &b.lap, p.openRate, lapSeed) })
		if err != nil {
			return res, err
		}
		p.tr.clientSpans(&b.lap)
		b.one = b.one[:0]
		within := 0
		for i := range b.lap.jobs {
			if err := b.lap.errs[i]; err != nil && !isRejected(err) {
				continue
			}
			d := b.lap.done[i] - b.lap.from(i)
			b.one = append(b.one, d)
			if d <= latencyLimitNs {
				within++
			}
			if woke := b.lap.woke[i]; woke > 0 {
				b.lag = append(b.lag, woke-b.lap.due[i])
			}
		}
		b.lat = append(b.lat, b.one...)
		decided := float64(len(b.one))
		q := nsQuantilesUs(b.one, 0.5, 0.9)
		res.laps = append(res.laps, lapStats{
			perSecond: float64(within) / use.wall.Seconds(), p50: q[0], p90: q[1],
			within: float64(within) / float64(size),
			cpu:    float64(use.cpu.Nanoseconds()) / 1e3 / decided, allocs: float64(use.mallocs) / decided,
		})
		res.wall += use.wall
		res.mallocs += use.mallocs
		res.offered += size
		res.decisions += len(b.one)
		res.within += within
		orc.verify(&b.lap)
		if err := held(); err != nil {
			return res, err
		}
		if p.budget > 0 && n+1 == p.s.CountLaps {
			orc.freeze()
		}
	}
	if p.pings > 0 {
		res.pingP50, err = pingP50(clients[0].(client), p.pings)
		if err != nil {
			return res, err
		}
	}
	if err := down(); err != nil {
		return res, err
	}
	rec, err := reopen(p.dir, p.s.Procs, p.s.Sync)
	if err != nil {
		return res, err
	}
	orc.durable(rec)

	q := nsQuantilesUs(b.lat, 0.5, 0.99)
	res.p50, res.p99 = q[0], q[1]
	if len(b.lag) > 0 {
		res.lagP99 = nsQuantilesUs(b.lag, 0.99)[0]
	}
	res.admitRatio, res.utilization = orc.admitRatio(), orc.utilization()
	res.replay, res.gen, res.digest = rec.replay, feed.genTime, orc.digest
	res.attempted, res.failed, res.failures = orc.attempted, orc.failed, orc.failures
	return res, nil
}

func pingP50(c client, n int) (float64, error) {
	ns := make([]int64, n)
	for i := range ns {
		start := time.Now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		ns[i] = int64(time.Since(start))
	}
	return nsQuantilesUs(ns, 0.5)[0], nil
}

// run is one workload's untraced rounds: each a fresh journal directory and
// a fresh served stack, warmed up, then driven for its share of the run.
type run struct {
	s       *spec
	seed    int64
	budget  time.Duration // measured time per round
	walRoot string
	ref     *reference // ordered workloads only
	bufs    buffers

	rounds            []passResult
	attempted, failed int
	failures          []string
}

func newRun(s *spec, seed int64, budget time.Duration, walRoot string) (*run, error) {
	r := &run{s: s, seed: seed, budget: budget, walRoot: walRoot}
	if s.ordered() {
		var err error
		if r.ref, err = newReference(s, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *run) round() error {
	p := pass{
		s: r.s, seed: r.seed,
		dir:     filepath.Join(r.walRoot, fmt.Sprintf("%s-%d", r.s.Name, len(r.rounds))),
		clients: r.s.Clients, openRate: r.s.OpenRate,
		budget: r.budget, ref: r.ref,
	}
	res, err := p.run(&r.bufs)
	if err != nil {
		return fmt.Errorf("%s round %d: %w", r.s.Name, len(r.rounds), err)
	}
	r.rounds = append(r.rounds, res)
	r.attempted += res.attempted
	r.failed += res.failed
	r.failures = append(r.failures, res.failures...)
	return nil
}

// fastest and highest reduce per-lap values to their 5th percentile on the
// better side: of some forty to a hundred laps, about the third best.
//
// The sandbox this was sized on is disturbed from outside, in bursts of
// seconds and in stretches of minutes, during which every lap runs 30-70 %
// slower; left alone, a lap's median latency repeats within 3 %.  The
// disturbance only ever slows the stack, so the laps on the fast side are
// what the stack does when left alone.  Over ten runs with ten seeds on a bad
// hour of the machine steady_wire's admit_p50_us spread by 32 % of its median
// as the lower quartile over laps, 15 % as the lower decile, 10 % as this and
// 9 % as the single best lap, which hangs on one observation.
func fastest(laps []float64) float64 { return quantile(sortedCopy(laps), 0.05) }
func highest(laps []float64) float64 { return quantile(sortedCopy(laps), 0.95) }

// lapwise reduces one per-lap statistic over the laps of all rounds, keeping
// each round's own value and the median over all laps beside it.  Times and
// rates reduce by fastest and highest; a count, which no disturbance moves,
// by median.
func (r *run) lapwise(name, unit string, reduce func([]float64) float64, f func(lapStats) float64) measure {
	m := measure{Name: name, Unit: unit}
	var all []float64
	for i := range r.rounds {
		laps := r.rounds[i].each(f)
		m.Rounds = append(m.Rounds, reduce(laps))
		all = append(all, laps...)
	}
	m.Value, m.LapMedian = reduce(all), median(all)
	return m
}

// roundwise reduces a statistic with one value a round to the median.
func (r *run) roundwise(name, unit string, f func(*passResult) float64) measure {
	m := measure{Name: name, Unit: unit}
	for i := range r.rounds {
		m.Rounds = append(m.Rounds, f(&r.rounds[i]))
	}
	m.Value = median(m.Rounds)
	return m
}

// endToEnd reduces the rounds to the end-to-end metrics, the ones
// BENCHMARK.json bounds.  A lap-wise metric is reduced over the laps of all
// rounds (lapwise); setup_s and the two placement ratios have one value
// a round and take the median.
func (r *run) endToEnd() []measure {
	p50 := r.lapwise("admit_p50_us", "us", fastest, func(l lapStats) float64 { return l.p50 })
	p50.Samples = r.s.Lap
	// A decision that arrives after the limit is not an admission served.
	perSecond := r.lapwise("admissions_per_s", "1/s", highest, func(l lapStats) float64 { return l.perSecond })
	if r.s.OpenRate > 0 {
		// An open loop's rate over a lap is the luck of its schedule (256
		// Poisson arrivals: 6 % either way), and the best laps are the
		// luckiest: ten seeds spread them by 8.7 %.  A disturbance does not
		// lower an open loop's rate, it makes decisions late, so the whole
		// round is counted.
		perSecond = r.roundwise("admissions_per_s", "1/s", func(res *passResult) float64 { return float64(res.within) / res.wall.Seconds() })
	}
	return []measure{
		r.roundwise("setup_s", "s", func(res *passResult) float64 { return res.setup.Seconds() }),
		perSecond,
		p50,
		r.lapwise("within_limit_ratio", "ratio", highest, func(l lapStats) float64 { return l.within }),
		r.roundwise("admit_ratio", "ratio", func(res *passResult) float64 { return res.admitRatio }),
		r.roundwise("utilization", "ratio", func(res *passResult) float64 { return res.utilization }),
		r.lapwise("allocs_per_admission", "count", median, func(l lapStats) float64 { return l.allocs }),
	}
}

// unbounded are the numbers of the untraced rounds that a slow stretch of
// this machine, minutes long, moves by more than any bound BENCHMARK.json may
// hold (25 %): the latency tail and the process's CPU time, most of which on
// the fsync workloads is the runtime looking for work.  They are reported
// with the per-layer metrics, which carry no bound.
func (r *run) unbounded() []measure {
	p90 := r.lapwise("served.admit_p90_us", "us", fastest, func(l lapStats) float64 { return l.p90 })
	p90.Samples = r.s.Lap
	return []measure{
		p90,
		// Every decision of a round pooled: the one percentile a lap is too
		// short for.
		r.roundwise("served.admit_p99_us", "us", func(res *passResult) float64 { return res.p99 }),
		r.lapwise("served.cpu_us_per_admission", "us", fastest, func(l lapStats) float64 { return l.cpu }),
	}
}

// info is what the untraced rounds print beside the metrics.
func (r *run) info() string {
	var lag []float64
	laps := 0
	for _, res := range r.rounds {
		lag = append(lag, res.lagP99)
		laps += len(res.laps)
	}
	return fmt.Sprintf("%d laps of %d jobs; open-loop lag p99 per round %.6g us", laps, r.s.Lap, lag)
}
