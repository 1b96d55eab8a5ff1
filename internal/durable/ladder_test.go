package durable

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/allocs"
	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/fed"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// The counts the cost ladder takes at every rung, in the order it prints
// them.  Allocations are every object the rung allocates but the counting
// wrappers' own; which site allocates what is pinned apart, exactly, by
// TestServedAdmissionAllocationBudget (grant boxes, the decoder's chunks)
// and TestCheckpointAllocationBudgetOnDisk (a checkpoint's sites).
// Syscalls are the read and write calls of the whole process (syscr +
// syscw in /proc/self/io).
const (
	cAllocs = iota
	cFSCalls
	cFSBytes
	cFsyncs
	cWireBytes
	cHoles
	cDescents
	cSyscalls
	// The syscalls' two halves, syscr and syscw: pinned only as their sum,
	// printed apart so that a miss says which half moved.
	cSyscr
	cSyscw
	nCounts
)

// nPinned is how many counts, from the first, ladderPins holds.
const nPinned = cSyscr

var countNames = [nCounts]string{
	"allocs", "fs.calls", "fs.bytes", "fs.fsyncs", "wire.bytes",
	"plan.holes", "plan.descents", "syscalls", "syscr", "syscw",
}

// cost is what a rung's counted admissions cost, count by count.
type cost [nCounts]int64

// siteInstrument is where the counting wrappers allocate: left out of the
// count.
const siteInstrument = "milan/internal/durable.(*countingFS).wrap"

// ladderPins is each rung's own cost — what it adds to the rung below it —
// over ladderAdmissions admissions: core plan+commit, a one-shard fed
// arbitrator, the durable plane on vfs.OS journaling without and with an
// fsync per grant, and that plane served over loopback.  slack 0 pins a
// count exactly; the allocations, which the runtime's map and slice growth
// move, and the syscalls, which its wake-ups move, are held within ±slack
// of the figure.  The fed rung's 8 objects are slabs of grant boxes, the
// plane's 13 its four checkpoints (13 objects of its own, none in the
// kernel-facing calls), and the wire's 24 the client's slabs and the
// decoder's job chunks.
var ladderPins = [nPinned]struct {
	delta [5]int64
	slack int64
}{
	cAllocs:    {[5]int64{0, 8, 13, 0, 24}, 8},
	cFSCalls:   {[5]int64{0, 0, 336, 256, 0}, 0},
	cFSBytes:   {[5]int64{0, 0, 31794, 0, 0}, 0},
	cFsyncs:    {[5]int64{0, 0, 12, 256, 0}, 0},
	cWireBytes: {[5]int64{0, 0, 0, 0, 53149}, 0},
	cHoles:     {[5]int64{1014, 0, 0, 0, 0}, 0},
	cDescents:  {[5]int64{1407, 0, 0, 0, 0}, 0},
	cSyscalls:  {[5]int64{4, 0, 305, 0, 1731}, 128},
}

// ladderAdmissions is how many admissions each rung counts, after
// ladderWarmup+1 that fill the buffers the plane and its checkpoints keep
// (so the count sees no growth of theirs, with or without -race); a
// checkpoint is forced after every ladderCheckpointEvery-th admission on
// the rungs that have a journal, and every ladderObserveEvery-th reports
// its release as the clock first.
const (
	ladderAdmissions      = 256
	ladderWarmup          = 256
	ladderCheckpointEvery = 64
	ladderObserveEvery    = 8
)

// ladderRungs are the rungs' names, bottom up.
var ladderRungs = [5]string{"core", "fed", "plane/never", "plane/always", "wire"}

// TestServedCostLadder is the served admission's cost, counted rung by rung
// up the stack the benchmark serves: a fixed-seed Figure-4 stream (the
// steady_wire workload's: 8 processors × 20 a task, α 0.5, laxity 0.5, a
// Poisson gap of 6 on 64 processors) through core's planner alone, a
// one-shard fed arbitrator, a durable plane on the real file system in a
// temporary directory without and with an fsync per grant, and that plane
// served to a client over loopback TCP.  At every rung it counts, per
// admission, the objects allocated (internal/allocs), the file-system
// calls, bytes written and fsyncs (a counting vfs.FS), the bytes on the wire
// (a counting net.Listener), the holes the planner probed and the index's
// descents, and the process's read and write syscalls.  Each rung is pinned
// by what it adds to the one below, so a change to one layer's cost fails
// that layer's rung and no other.  Checkpoints are forced between
// admissions rather than started on the plane's cadence, so no flush races
// a checkpoint's publication and every count but two repeats exactly.  With
// -v it prints the ladder.
func TestServedCostLadder(t *testing.T) {
	fig := workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.5}
	jobs := fig.Stream(workload.NewPoisson(6, 4801), ladderWarmup+1+ladderAdmissions, workload.Tunable)
	var got [5]cost
	for i, name := range ladderRungs {
		got[i] = climb(t, name, jobs)
	}
	if testing.Verbose() {
		t.Log("\n" + ladderTable(got))
	}
	adds := func(r, c int) int64 {
		if r == 0 {
			return got[r][c]
		}
		return got[r][c] - got[r-1][c]
	}
	for r, name := range ladderRungs {
		for c := 0; c < nPinned; c++ {
			if c == cSyscalls && runtime.GOOS != "linux" {
				continue
			}
			delta := adds(r, c)
			pin := ladderPins[c]
			if lo, hi := pin.delta[r]-pin.slack, pin.delta[r]+pin.slack; delta < lo || delta > hi {
				want := strconv.FormatInt(pin.delta[r], 10)
				if pin.slack > 0 {
					want = fmt.Sprintf("%d ± %d", pin.delta[r], pin.slack)
				}
				halves := ""
				if c == cSyscalls {
					halves = fmt.Sprintf(" (syscr %d, syscw %d)", adds(r, cSyscr), adds(r, cSyscw))
				}
				t.Errorf("rung %s adds %d to %s%s over %d admissions, want %s", name, delta, countNames[c], halves, ladderAdmissions, want)
			}
		}
	}
}

// BenchmarkServedConnections is the served admission under concurrency:
// closed loops of the ladder's steady_wire stream over loopback, one qosnet
// client per connection, against a durable plane on vfs.OS in a temporary
// directory, with the journal unflushed (sync=never: the plane's CPU and
// lock bound the run) or flushed per grant (sync=always: the disk does).
// An op is one admission; the connections take the stream's jobs in order
// from one counter, and every 8th reports the release of the arrival 8
// back as the clock first, outside its latency.  It reports admissions/s,
// the latency's p50, p99 and max in µs and the fraction admitted.  Wall
// clock spreads on a shared host: compare runs of two trees by
// alternating them in one sitting, each beside a same-binary A/A pair.  At
// 8 and 16 connections under sync=never this is the sweep that retired
// sharding from the durable plane (CHANGES.md has every pair and the rule).
func BenchmarkServedConnections(b *testing.B) {
	for _, policy := range []SyncPolicy{syncNever, SyncAlways} {
		for _, conns := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("sync=%s/conns=%d", policy, conns), func(b *testing.B) {
				servedConnections(b, policy, conns)
			})
		}
	}
}

func servedConnections(b *testing.B, policy SyncPolicy, conns int) {
	const warmup = 1024
	fig := workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.5}
	jobs := fig.Stream(workload.NewPoisson(6, 4801), warmup+b.N, workload.Tunable)
	p, _, err := OpenPlane(Config{
		FS: vfs.OS{}, Dir: b.TempDir(), Procs: 64, Store: StoreOptions{Sync: policy},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := qosnet.Serve(p, ln)
	defer srv.Close()
	clients := make([]*qosnet.Client, conns)
	for c := range clients {
		if clients[c], err = qosnet.Dial(srv.Addr().String()); err != nil {
			b.Fatal(err)
		}
		defer clients[c].Close()
	}
	// admit sends job k, after the clock report that precedes it if any,
	// and returns how long the negotiation took and whether it was granted.
	admit := func(cli *qosnet.Client, k int) (time.Duration, bool, error) {
		if k%ladderObserveEvery == 0 && k > 0 {
			if err := cli.Observe(jobs[k-ladderObserveEvery].Release); err != nil {
				return 0, false, err
			}
		}
		start := time.Now()
		_, err := cli.Negotiate(jobs[k])
		took := time.Since(start)
		if errors.Is(err, qos.ErrRejected) {
			return took, false, nil
		}
		return took, err == nil, err
	}
	for k := 0; k < warmup; k++ {
		if _, _, err := admit(clients[0], k); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, b.N)
	var next, admitted atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for _, cli := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
				took, granted, err := admit(cli, warmup+i)
				if err != nil {
					b.Errorf("job %d: %v", jobs[warmup+i].ID, err)
					return
				}
				lat[i] = took
				if granted {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	slices.Sort(lat)
	us := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e3 }
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "admissions/s")
	b.ReportMetric(us(0.5), "p50-us")
	b.ReportMetric(us(0.99), "p99-us")
	b.ReportMetric(us(1), "max-us")
	b.ReportMetric(float64(admitted.Load())/float64(b.N), "admit-ratio")
}

// rung is one level of the ladder as climb drives it.
type rung struct {
	admit func(job core.Job, observe bool) error
	// planner returns the planner's probes and descents so far.
	planner func() (holes, descents int64)
	// checkpoint forces a checkpoint and waits for it (nil: no journal).
	checkpoint func() error
	fs         *countingFS
	wire       *atomic.Int64
}

// climb builds the named rung, drives jobs through it and returns what the
// last ladderAdmissions of them cost.
func climb(t *testing.T, name string, jobs []core.Job) cost {
	r := buildRung(t, name)
	procIO, err := os.Open("/proc/self/io")
	if err != nil {
		procIO = nil // off Linux: no syscall count
	} else {
		defer procIO.Close()
	}
	var buf [512]byte
	var before, after cost
	// take fills the counts that a read of counters gives; the planner's
	// stats and the syscalls may allocate, so they are read outside the
	// counted window: in the warm-up call and once Count has returned.
	take := func(c *cost) {
		if r.fs != nil {
			c[cFSCalls], c[cFSBytes], c[cFsyncs] = r.fs.calls.Load(), r.fs.bytes.Load(), r.fs.fsyncs.Load()
		}
		if r.wire != nil {
			c[cWireBytes] = r.wire.Load()
		}
		c[cHoles], c[cDescents] = r.planner()
		if procIO != nil {
			n, _ := procIO.ReadAt(buf[:], 0)
			c[cSyscr], c[cSyscw] = procIOField(buf[:n], "syscr"), procIOField(buf[:n], "syscw")
			c[cSyscalls] = c[cSyscr] + c[cSyscw]
		}
	}
	next := 0
	admit := func() {
		i := next
		next++
		if err := r.admit(jobs[i], i%ladderObserveEvery == 0); err != nil && !errors.Is(err, qos.ErrRejected) {
			t.Fatalf("rung %s, job %d: %v", name, jobs[i].ID, err)
		}
		if r.checkpoint != nil && i > 0 && i%ladderCheckpointEvery == 0 {
			if err := r.checkpoint(); err != nil {
				t.Fatalf("rung %s, checkpoint after job %d: %v", name, jobs[i].ID, err)
			}
		}
		if i == ladderWarmup {
			take(&before)
		}
	}
	for next < ladderWarmup {
		admit()
	}
	total, at := allocs.Count(ladderAdmissions, admit, siteInstrument)
	take(&after)

	var c cost
	for i := range c {
		c[i] = after[i] - before[i]
	}
	c[cAllocs] = int64(total - at[0])
	return c
}

// buildRung opens the named rung on fresh state; t's cleanup closes it.
func buildRung(t *testing.T, name string) rung {
	const procs = 64
	switch name {
	case "core":
		s := core.NewScheduler(procs, 0, nil)
		var pl core.Placement
		return rung{
			admit: func(job core.Job, observe bool) error {
				if observe {
					s.Observe(job.Release)
				}
				if !s.PlanInto(job, &pl, pl.Tasks) {
					return qos.ErrRejected
				}
				return s.Commit(job, &pl)
			},
			planner: func() (int64, int64) { return int64(s.Stats().HolesProbed), s.IndexStats().Descents },
		}
	case "fed":
		a, err := fed.New(fed.Config{Procs: procs, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rung{
			admit: func(job core.Job, observe bool) error {
				if observe {
					a.Observe(job.Release)
				}
				_, err := a.Negotiate(job)
				return err
			},
			planner: func() (int64, int64) { return int64(a.Stats().HolesProbed), a.IndexStats().Descents },
		}
	}
	policy := syncNever
	if name != "plane/never" {
		policy = SyncAlways
	}
	fs := &countingFS{}
	p, _, err := OpenPlane(Config{
		FS: fs, Dir: t.TempDir(), Procs: procs,
		Store: StoreOptions{Sync: policy, SnapshotEvery: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	r := rung{
		admit: func(job core.Job, observe bool) error {
			if observe {
				p.Observe(job.Release)
			}
			_, err := p.Negotiate(job)
			return err
		},
		planner:    func() (int64, int64) { return int64(p.arb.Stats().HolesProbed), p.arb.IndexStats().Descents },
		checkpoint: p.Snapshot,
		fs:         fs,
	}
	if name != "wire" {
		return r
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.wire = new(atomic.Int64)
	srv := qosnet.Serve(p, countingListener{ln, r.wire})
	cli, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	r.admit = func(job core.Job, observe bool) error {
		if observe {
			if err := cli.Observe(job.Release); err != nil {
				return err
			}
		}
		_, err := cli.Negotiate(job)
		return err
	}
	return r
}

// ladderTable renders the ladder: a row per count, a column per rung, each
// cell the count per admission and, where it differs from the rung below,
// by how much.
func ladderTable(got [5]cost) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| per admission (%d) |", ladderAdmissions)
	for _, name := range ladderRungs {
		fmt.Fprintf(&b, " %s |", name)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(ladderRungs)))
	for c, name := range countNames {
		fmt.Fprintf(&b, "\n| %s |", name)
		for r := range ladderRungs {
			v := float64(got[r][c]) / ladderAdmissions
			fmt.Fprintf(&b, " %.4g", v)
			if r > 0 && got[r][c] != got[r-1][c] {
				fmt.Fprintf(&b, " (%+.4g)", v-float64(got[r-1][c])/ladderAdmissions)
			}
			b.WriteString(" |")
		}
	}
	return b.String()
}

// procIOField returns the named field of /proc/self/io's text.
func procIOField(text []byte, field string) int64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(": ")); ok && string(k) == field {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			return n
		}
	}
	return 0
}

// countingFS is vfs.OS with every call, every byte written and every fsync
// (a file's or a directory's) counted.
type countingFS struct {
	os                   vfs.OS
	calls, bytes, fsyncs atomic.Int64
}

type countedFile struct {
	f  vfs.File
	fs *countingFS
}

// wrap counts the call that opened f and hands it out counted.
func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	c.calls.Add(1)
	if err != nil {
		return nil, err
	}
	return &countedFile{f, c}, nil
}

func (c *countingFS) Create(name string) (vfs.File, error) { return c.wrap(c.os.Create(name)) }
func (c *countingFS) Open(name string) (vfs.File, error)   { return c.wrap(c.os.Open(name)) }
func (c *countingFS) OpenAppend(name string) (vfs.File, error) {
	return c.wrap(c.os.OpenAppend(name))
}
func (c *countingFS) Remove(name string) error { c.calls.Add(1); return c.os.Remove(name) }
func (c *countingFS) Rename(o, n string) error { c.calls.Add(1); return c.os.Rename(o, n) }
func (c *countingFS) MkdirAll(dir string) error {
	c.calls.Add(1)
	return c.os.MkdirAll(dir)
}
func (c *countingFS) ReadDir(dir string) ([]string, error) {
	c.calls.Add(1)
	return c.os.ReadDir(dir)
}
func (c *countingFS) SyncDir(dir string) error {
	c.calls.Add(1)
	c.fsyncs.Add(1)
	return c.os.SyncDir(dir)
}

func (f *countedFile) Read(p []byte) (int, error) { f.fs.calls.Add(1); return f.f.Read(p) }
func (f *countedFile) Write(p []byte) (int, error) {
	f.fs.calls.Add(1)
	n, err := f.f.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}
func (f *countedFile) Close() error { f.fs.calls.Add(1); return f.f.Close() }
func (f *countedFile) Sync() error {
	f.fs.calls.Add(1)
	f.fs.fsyncs.Add(1)
	return f.f.Sync()
}

// countingListener hands out connections that count the bytes they carry
// both ways into n.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, l.n}, nil
}

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
