package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// lap is one unit of generated work and what came back for it.  Jobs are
// generated before the lap is timed and verified after it, so the served
// stack receives only the generated jobs and the timing holds only its work.
type lap struct {
	start time.Time
	jobs  []Job
	// observe[i], when positive, is the clock the client reports before it
	// submits jobs[i].
	observe []float64
	grants  []*Grant
	errs    []error
	// Nanoseconds since the lap started: when job i fell due (the open
	// loop's schedule; equal to sent on a closed loop), when its client
	// submitted it, and when the decision arrived.  woke is when the open
	// loop's alarm went off for it, or 0 if the job fell due while its client
	// was still busy and no alarm was set.
	due, sent, done, woke []int64
}

// from is when job i's latency starts: the first moment its client could
// have submitted it.  On the open loop that is the alarm going off, or the
// due time where the job fell due while its connection was busy: waiting for
// the stack to answer is the stack's time, the alarm's lateness (woke - due,
// reported as loadgen.lag_p99_us) is the load generator's and is kept out.
func (l *lap) from(i int) int64 {
	if l.woke[i] > 0 {
		return l.woke[i]
	}
	return l.due[i]
}

func (l *lap) resize(n int) {
	if cap(l.jobs) < n {
		*l = lap{
			jobs: make([]Job, n), observe: make([]float64, n),
			grants: make([]*Grant, n), errs: make([]error, n),
			due: make([]int64, n), sent: make([]int64, n), done: make([]int64, n), woke: make([]int64, n),
		}
	}
	l.jobs, l.observe, l.grants, l.errs = l.jobs[:n], l.observe[:n], l.grants[:n], l.errs[:n]
	l.due, l.sent, l.done, l.woke = l.due[:n], l.sent[:n], l.done[:n], l.woke[:n]
}

// feeder cuts a stream into laps and places the clock observations.
type feeder struct {
	st       *stream
	releases [observeEvery]float64
	jobs     int
	genTime  time.Duration
}

func (f *feeder) fill(l *lap, n int) {
	start := time.Now()
	l.resize(n)
	for i := range l.jobs {
		job := f.st.next()
		slot := f.jobs % observeEvery
		l.observe[i] = 0
		if slot == 0 {
			l.observe[i] = f.releases[0] // release of the arrival observeEvery back; 0 on the first
		}
		f.releases[slot] = job.Release
		l.jobs[i], l.grants[i], l.errs[i], l.woke[i] = job, nil, nil, 0
		f.jobs++
	}
	f.genTime += time.Since(start)
}

// runLap pushes the lap through the clients, one goroutine each, and returns
// the time from its start to its last decision.  openRate > 0 paces the
// submissions on Poisson schedules drawn from seed; otherwise each client
// submits its next job when the previous decision arrives.
func runLap(clients []admitter, l *lap, openRate float64, seed int64) (time.Duration, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	l.start = time.Now()
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if openRate > 0 {
				gap := float64(len(clients)) / openRate * 1e9
				errs[c] = openLoop(cl, l, &next, gap, rand.New(rand.NewSource(seed+int64(c))))
			} else {
				closedLoop(cl, l, &next)
			}
		}()
	}
	wg.Wait()
	var last int64
	for _, d := range l.done {
		last = max(last, d)
	}
	return time.Duration(last), errors.Join(errs...)
}

func closedLoop(c admitter, l *lap, next *atomic.Int64) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(l.jobs) {
			return
		}
		if !observed(c, l, i) {
			continue
		}
		l.sent[i] = int64(time.Since(l.start))
		l.due[i] = l.sent[i]
		l.grants[i], l.errs[i] = c.Negotiate(l.jobs[i])
		l.done[i] = int64(time.Since(l.start))
	}
}

// openLoop is one independent agent: its requests fall due at the arrivals
// of its own Poisson process whatever the stack is doing, and a request that
// falls due while the previous one is outstanding is sent as soon as that
// one returns.  The clients' processes superpose to one of the full rate.
//
// The agent claims its next job as soon as it is free and sends the clock
// report that precedes it, if any, right then, ahead of the job's arrival: a
// report inside the latency of every 8th request would put the p90 on the
// boundary between requests with one journal record and requests with two.
func openLoop(c admitter, l *lap, next *atomic.Int64, meanGapNs float64, rng *rand.Rand) error {
	wake, err := newAlarm()
	if err != nil {
		return err
	}
	defer wake.close()
	var at int64
	for {
		i := int(next.Add(1)) - 1
		if i >= len(l.jobs) {
			return nil
		}
		if !observed(c, l, i) {
			continue
		}
		at += int64(rng.ExpFloat64() * meanGapNs)
		waited, err := wake.at(l.start, at)
		if err != nil {
			return err
		}
		l.due[i] = at
		l.sent[i] = int64(time.Since(l.start))
		if waited {
			l.woke[i] = l.sent[i]
		}
		l.grants[i], l.errs[i] = c.Negotiate(l.jobs[i])
		l.done[i] = int64(time.Since(l.start))
	}
}

// alarm wakes its goroutine at a point in time through a timerfd read on
// Go's network poller.  time.Sleep is no use here: an idle Go process rounds
// timers up to epoll's millisecond, which fired 700 us late on the sandbox
// this was sized on, against a 115 us service time.  A busy wait is worse: it
// takes one of two processors from the stack and tripled its service time.
// The timerfd fires about 45 us late (loadgen.lag_p99_us reports the tail),
// burns nothing, and leaves both processors to the stack.
type alarm struct {
	fd uintptr
	f  *os.File
}

func newAlarm() (*alarm, error) {
	const clockMonotonic, nonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (a *alarm) close() { a.f.Close() }

// at returns once offset nanoseconds have passed since start, and whether it
// had to wait for that.
func (a *alarm) at(start time.Time, offset int64) (waited bool, err error) {
	wait := offset - int64(time.Since(start))
	if wait <= 0 {
		return false, nil
	}
	// struct itimerspec: a zero interval, then the one-shot expiry.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(wait)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return false, fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err = a.f.Read(expirations[:])
	return true, err
}

// observed reports the clock that precedes job i, if any; a failed report
// fails the job.
func observed(c admitter, l *lap, i int) bool {
	if l.observe[i] <= 0 {
		return true
	}
	if err := c.Observe(l.observe[i]); err != nil {
		l.errs[i] = err
		l.done[i] = int64(time.Since(l.start))
		return false
	}
	return true
}

// usage is what a timed interval cost the whole process, client and server.
type usage struct {
	wall, cpu time.Duration
	mallocs   uint64
}

func (u *usage) add(v usage) { u.wall += v.wall; u.cpu += v.cpu; u.mallocs += v.mallocs }

// metered runs fn, which returns its own wall time, between readings of the
// process's CPU time and allocation count.
func metered(fn func() (time.Duration, error)) (usage, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := processCPU()
	wall, err := fn()
	cpu = processCPU() - cpu
	runtime.ReadMemStats(&after)
	return usage{wall: wall, cpu: cpu, mallocs: after.Mallocs - before.Mallocs}, err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
