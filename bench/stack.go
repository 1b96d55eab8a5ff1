package main

// stack.go is the benchmark's only adapter to milan: every call into
// milan/internal/... lives here — stream generation, the served stack as
// cmd/junctiond.serveAdmission builds it, the ladder's rung constructors and
// the timing wrappers at the three public seams.  A refactor that renames a
// constructor has this one file to reconcile; the measuring code in the
// other files does not change.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"milan/internal/campaign"
	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/fed"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

type (
	Job       = core.Job
	Grant     = qos.Grant
	Placement = core.Placement
)

// eps is the scheduler's own tolerance for time comparisons.
const eps = core.Eps

// snapshotEvery is junctiond's default -snapshot-every.
const snapshotEvery = 1024

// errRejected is the verdict of a rung that found no feasible chain.
var errRejected = qos.ErrRejected

func isRejected(err error) bool { return errors.Is(err, qos.ErrRejected) }
func isShed(err error) bool     { return errors.Is(err, qos.ErrShed) }

// stream generates a workload's Figure-4 jobs from a seed: Poisson releases
// in simulated time, tenants cycled round-robin.  A workload with a FillSeed
// draws its warm-up prefix from that seed instead, and the rest from seed.
type stream struct {
	fj      workload.FigureJob
	arr     *workload.Poisson
	tenants *workload.TenantCycle
	id      int
	release float64
	// fill jobs come from the fixed fill; job number fill switches arr to seed.
	fill int
	seed int64
}

func newStream(s *spec, seed int64) (*stream, error) {
	fj := workload.FigureJob{X: s.X, T: s.T, Alpha: s.Alpha, Laxity: s.Laxity}
	if err := fj.Validate(); err != nil {
		return nil, err
	}
	st := &stream{fj: fj, arr: workload.NewPoisson(s.MeanGap, seed)}
	if s.FillSeed != 0 {
		st.arr, st.fill, st.seed = workload.NewPoisson(s.MeanGap, s.FillSeed), s.Warmup, seed
	}
	if len(s.Tenants) > 0 {
		st.tenants = &workload.TenantCycle{Tenants: s.Tenants, Classes: s.Classes}
	}
	return st, nil
}

func (s *stream) next() Job {
	if s.fill > 0 && s.id == s.fill {
		s.arr = workload.NewPoisson(s.arr.Mean, s.seed)
	}
	s.release += s.arr.Next()
	job := s.fj.Job(s.id, s.release, workload.Tunable)
	job.Tenant, job.Class = s.tenants.Assign(s.id)
	s.id++
	return job
}

// admitter is the surface the load loops drive: a qosnet client, or a
// ladder rung adapted to it.
type admitter interface {
	Negotiate(Job) (*Grant, error)
	Observe(now float64) error
}

// inproc adapts an in-process arbitrator (Observe returns nothing) to
// admitter.
type inproc struct {
	arb interface {
		Negotiate(Job) (*Grant, error)
		Observe(now float64)
	}
}

func (a inproc) Negotiate(job Job) (*Grant, error) { return a.arb.Negotiate(job) }
func (a inproc) Observe(now float64) error         { a.arb.Observe(now); return nil }

// planeConfig is the durable.Config of cmd/junctiond.serveAdmission with
// -admit-shards 1 and the default -snapshot-every.
func planeConfig(fs vfs.FS, dir string, procs int, sync string) (durable.Config, error) {
	pol, err := durable.ParseSyncPolicy(sync)
	if err != nil {
		return durable.Config{}, err
	}
	if err := fs.MkdirAll(dir); err != nil {
		return durable.Config{}, fmt.Errorf("wal dir: %w", err)
	}
	return durable.Config{
		FS: fs, Dir: dir,
		Procs: procs, Shards: 1, ProbeK: 1,
		Store: durable.StoreOptions{Sync: pol, SnapshotEvery: snapshotEvery},
	}, nil
}

// served is the admission stack junctiond serves: a durable plane on the
// real filesystem behind a qosnet server on loopback.
type served struct {
	plane *durable.Plane
	srv   *qosnet.Server
}

// openServed builds the stack in dir.  With a tracer the plane, the
// filesystem and the listener are wrapped at their public seams; without
// one the construction is serveAdmission's, call for call, but for the
// journal's flush where every decision waits for one (nominalDisk).
func openServed(dir string, procs int, sync string, tr *tracer) (*served, error) {
	var fs vfs.FS = vfs.OS{}
	if sync == "always" {
		fs = nominalDisk{fs}
	}
	if tr != nil {
		fs = timedFS{fs, tr}
	}
	cfg, err := planeConfig(fs, dir, procs, sync)
	if err != nil {
		return nil, err
	}
	plane, _, err := durable.OpenPlane(cfg)
	if err != nil {
		return nil, fmt.Errorf("open admission plane: %w", err)
	}
	var srv *qosnet.Server
	if tr == nil {
		srv, err = qosnet.ListenAndServe(plane, "127.0.0.1:0")
	} else {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			srv = qosnet.Serve(tracedPlane{plane, tr}, countingListener{ln, tr})
		}
	}
	if err != nil {
		plane.Close()
		return nil, err
	}
	return &served{plane: plane, srv: srv}, nil
}

func (s *served) addr() string { return s.srv.Addr().String() }

func (s *served) close() error {
	err := s.srv.Close()
	if cerr := s.plane.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one agent's connection.
type client struct{ *qosnet.Client }

func dial(addr string) (client, error) {
	c, err := qosnet.Dial(addr)
	return client{c}, err
}

// recovered is what reopening a finished round's directory reconstructs.
type recovered struct {
	lsn    uint64
	now    float64
	grants map[int][]core.TaskPlacement
	replay time.Duration
}

// reopen recovers the plane journaled in dir, as a restarted junctiond would.
func reopen(dir string, procs int, sync string) (recovered, error) {
	cfg, err := planeConfig(vfs.OS{}, dir, procs, sync)
	if err != nil {
		return recovered{}, err
	}
	plane, rec, err := durable.OpenPlane(cfg)
	if err != nil {
		return recovered{}, fmt.Errorf("reopen admission plane: %w", err)
	}
	defer plane.Close()
	out := recovered{lsn: rec.State.LSN, now: plane.Now(), replay: rec.ReplayDuration, grants: map[int][]core.TaskPlacement{}}
	for _, g := range plane.Grants() {
		out.grants[g.JobID] = g.Tasks
	}
	return out, nil
}

// capacityOracle re-reserves granted placements on a fresh scheduler of the
// plane's size; a reservation the plane should not have granted fails here.
type capacityOracle struct{ s *core.Scheduler }

func newCapacityOracle(procs int) capacityOracle {
	return capacityOracle{core.NewScheduler(procs, 0, &core.Options{ProfileIndex: core.ProfileIndexOff})}
}

func (o capacityOracle) reserve(g *Grant) error { return o.s.ReservePlacement(&g.Placement) }
func (o capacityOracle) observe(now float64)    { o.s.Observe(now) }

// coreRung is the ladder's bottom rung: the scheduler alone, with Plan,
// Commit and Observe exposed one by one so each is timed on its own.
type coreRung struct{ s *core.Scheduler }

func newCoreRung(procs int) coreRung { return coreRung{core.NewScheduler(procs, 0, nil)} }

func (r coreRung) plan(job Job) (*Placement, bool)     { return r.s.Plan(job) }
func (r coreRung) commit(job Job, pl *Placement) error { return r.s.Commit(job, pl) }
func (r coreRung) observe(now float64)                 { r.s.Observe(now) }
func (r coreRung) segments() int                       { return r.s.Profile().Segments() }

// grant dresses a committed placement as the grant the upper rungs return.
func (r coreRung) grant(job Job, pl *Placement) *Grant {
	return &Grant{JobID: job.ID, Chain: pl.Chain, Quality: job.Chains[pl.Chain].Quality, Placement: *pl}
}

// coreCounts are the scheduler's exact work counters.
type coreCounts struct {
	chainsTried, holesProbed    int
	indexRebuilds, descentSteps int64
}

func (r coreRung) counts() coreCounts {
	st, ix := r.s.Stats(), r.s.IndexStats()
	return coreCounts{st.ChainsTried, st.HolesProbed, ix.Rebuilds, ix.DescentSteps}
}

// rung is one step of the ladder above core: the layer built from its
// public constructor, driven through admitter.
type rung struct {
	admitter
	// completed, when set, must hear every granted job finish (the shedder
	// releases its in-flight accounting there).
	completed func(jobID int, now float64)
	close     func() error
}

// rungNames lists the in-process rungs bottom-up; the served qosnet client
// is the rung above them.
var rungNames = []string{"qos", "fed_s1", "fed_s8", "shed", "durable_mem", "durable_os_never", "durable_os_always"}

// campaignShed is the shedder configuration of the campaign's
// saturation-overload scenario, sized to the plane.
func campaignShed(procs int) (qos.ShedConfig, error) {
	for _, sc := range campaign.Matrix() {
		if sc.Name == "saturation-overload" && sc.Shed != nil {
			cfg := *sc.Shed
			cfg.Capacity = procs
			return cfg, nil
		}
	}
	return qos.ShedConfig{}, errors.New("campaign has no saturation-overload shedder configuration")
}

// newRung builds the named rung for procs processors; dir is used by the
// rungs that journal to the real filesystem.
func newRung(name string, procs int, dir string) (*rung, error) {
	noClose := func() error { return nil }
	switch {
	case name == "qos" || name == "shed":
		arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: procs})
		if err != nil {
			return nil, err
		}
		if name == "qos" {
			return &rung{admitter: inproc{arb}, close: noClose}, nil
		}
		cfg, err := campaignShed(procs)
		if err != nil {
			return nil, err
		}
		sh, err := qos.NewShedder(arb, cfg)
		if err != nil {
			return nil, err
		}
		return &rung{admitter: inproc{shedRung{sh, arb}}, completed: sh.JobCompleted, close: noClose}, nil
	case strings.HasPrefix(name, "fed_s"):
		cfg := fed.Config{Procs: procs, Shards: 1, ProbeK: 1}
		if name == "fed_s8" {
			cfg.Shards, cfg.ProbeK = 8, 2
		}
		arb, err := fed.New(cfg)
		if err != nil {
			return nil, err
		}
		return &rung{admitter: inproc{arb}, close: noClose}, nil
	case strings.HasPrefix(name, "durable_"):
		var fs vfs.FS = vfs.OS{}
		sync := strings.TrimPrefix(name, "durable_os_")
		if name == "durable_mem" {
			// Mem's Sync copies the whole file; the rung is the codec and
			// the append, so it never syncs.
			fs, sync, dir = vfs.NewMem(), "never", "wal"
		}
		cfg, err := planeConfig(fs, dir, procs, sync)
		if err != nil {
			return nil, err
		}
		plane, _, err := durable.OpenPlane(cfg)
		if err != nil {
			return nil, err
		}
		return &rung{admitter: inproc{plane}, close: plane.Close}, nil
	}
	return nil, fmt.Errorf("unknown rung %q", name)
}

// shedRung advances the shedder's clock and the arbitrator's together.
type shedRung struct {
	*qos.Shedder
	arb *qos.Arbitrator
}

func (s shedRung) Observe(now float64) { s.Shedder.Observe(now); s.arb.Observe(now) }

// tracedPlane times the plane's public admission calls; it is the
// qosnet.Arbitrator the traced server exports.
type tracedPlane struct {
	p  *durable.Plane
	tr *tracer
}

func (t tracedPlane) Negotiate(job Job) (*Grant, error) {
	sp := t.tr.enterPlane("durable.plane", int64(job.ID))
	g, err := t.p.Negotiate(job)
	t.tr.exitPlane(sp)
	return g, err
}

func (t tracedPlane) Observe(now float64) {
	sp := t.tr.enterPlane("durable.observe", -1)
	t.p.Observe(now)
	t.tr.exitPlane(sp)
}

func (t tracedPlane) NegotiateDAG(job core.DAGJob) (*Grant, error) { return t.p.NegotiateDAG(job) }
func (t tracedPlane) Stats() core.Stats                            { return t.p.Stats() }
func (t tracedPlane) Utilization(origin, horizon float64) float64 {
	return t.p.Utilization(origin, horizon)
}

// nominalSync is how long a journal file's flush takes on the nominal disk.
const nominalSync = 300 * time.Microsecond

// nominalDisk is the real filesystem with a flush of constant duration: a
// journal file's Sync waits nominalSync and does not reach the disk.  The
// served stack under -wal-sync always runs on it, because the flush is the
// one part of that path that is not this repository's, and on the sandbox
// this was sized on it is not one number: File.Sync on a 100-byte append
// takes 85 us for minutes and then 172 us for minutes (the host's flush; the
// file system has no journal), and more after an idle millisecond.  Three
// such flips in an 18-minute ten-seed set spread overload_sync_c2's
// admit_p50_us by 39 % of its median, beyond any bound BENCHMARK.json may
// hold.  What a change here can move, how many flushes a decision waits for
// and what it holds while it waits, is all still there at 300 us a flush,
// a network volume's figure.  The wait spins: a timer fires 45-80 us late
// here, by another amount each run, and the core is idle anyway while the one
// caller that holds the plane waits.  Everything else goes to the real file
// system, the directory syncs of a snapshot too; the real flush is timed by
// the ladder's durable_os_always rung.
type nominalDisk struct{ vfs.FS }

func (d nominalDisk) Create(name string) (vfs.File, error) {
	f, err := d.FS.Create(name)
	return nominalFile{f}, err
}

func (d nominalDisk) OpenAppend(name string) (vfs.File, error) {
	f, err := d.FS.OpenAppend(name)
	return nominalFile{f}, err
}

type nominalFile struct{ vfs.File }

func (nominalFile) Sync() error {
	for start := time.Now(); time.Since(start) < nominalSync; {
	}
	return nil
}

// timedFS times and counts the journal's writes and syncs, and brackets
// each snapshot compaction from its temp-file create to the directory sync
// that publishes the fresh segment.
type timedFS struct {
	vfs.FS
	tr *tracer
}

func (f timedFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".tmp") {
		f.tr.snapshotBegin()
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.tr}, nil
}

func (f timedFS) OpenAppend(name string) (vfs.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.tr}, nil
}

func (f timedFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	f.tr.snapshotSyncDir()
	return err
}

type timedFile struct {
	vfs.File
	tr *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.vfsOp("vfs.write", start, n)
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.vfsOp("vfs.sync", start, 0)
	return err
}

// countingListener counts the bytes the server reads and writes.
type countingListener struct {
	net.Listener
	tr *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.tr}, nil
}

type countingConn struct {
	net.Conn
	tr *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.wireBytes.Add(int64(n))
	return n, err
}

// Write counts the bytes before they leave: the client may hold the
// response, and the pass have read or reset the count, before Write returns.
func (c countingConn) Write(p []byte) (int, error) {
	c.tr.wireBytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}
