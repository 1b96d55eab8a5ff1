// Package phase is the dependency-free leaf of the admission latency
// plane: the phase enumeration and the per-request Rec timer that
// arbitrators mark as an admission moves through route → probe → plan →
// reserve → journal → ack.  It imports only the standard library so the
// qos/fed/durable admission packages can attribute their time without
// depending on the observability registry (obs itself depends on qos,
// which would otherwise be a cycle); the latency plane proper
// (internal/obs/latency) supplies the Sink that turns finished records
// into histograms and exemplars.
package phase

import "time"

// Phase enumerates where admission time accrues.  The order is the wire
// order and the waterfall order.
type Phase uint8

const (
	// Route is shard selection (fed candidate scan) and arbitrator lock
	// acquisition — time spent deciding *where* to admit.
	Route Phase = iota
	// Probe is speculative planning against shard snapshots (fed.probe /
	// PlanKeyed), including commit attempts that lose their version race
	// — raced commits surface as probe-phase inflation by design.
	Probe
	// Plan is authoritative plan construction (sched.Admit descent).
	Plan
	// Reserve is committing the chosen plan into the profile
	// (version-checked commit, reservation bookkeeping).
	Reserve
	// Journal is the durable WAL write before acknowledgment and, for a
	// record that must be flushed first, the wait for that flush.
	Journal
	// ack is everything after the decision until the response is handed
	// back; Rec.End attributes the residual here so the phases always
	// sum to the end-to-end time.
	ack

	// Num is the number of phases (array sizing).
	Num = int(ack) + 1
)

var names = [Num]string{"route", "probe", "plan", "reserve", "journal", "ack"}

// Names returns the phase names in waterfall order.
func Names() [Num]string { return names }

// Sink consumes finished records.  Done receives the request identity,
// the total end-to-end nanoseconds, the per-phase waterfall, and the
// monotonic end time (NowNanos clock).
type Sink interface {
	Done(trace uint64, job int64, shard int32, total int64, durs [Num]int64, endMono int64)
}

// Monotonic clock: nanoseconds since the package loaded, via the
// runtime's monotonic reading (immune to wall-clock steps).
var (
	baseMono = time.Now()
	baseWall = float64(baseMono.UnixNano()) / 1e9
)

// NowNanos returns the monotonic clock reading.
func NowNanos() int64 { return int64(time.Since(baseMono)) }

// WallAt converts a monotonic reading to wall-clock seconds for display.
func WallAt(mono int64) float64 { return baseWall + float64(mono)/1e9 }

// Rec is one admission's phase timer — the only clock an admission is
// timed by: histograms, exemplars, the decision callback's latency and a
// traced request's spans (obs.ActiveSpan.EndAdmission) are all read off the
// finished record.  It is a plain value (embed it in a stack frame; pass
// *Rec down the admission path) and never allocates.  All methods are
// nil-safe: the zero Rec, or a nil *Rec, is inert — that is the zero-cost
// contract for uninstrumented paths.
type Rec struct {
	sink  Sink
	start int64
	last  int64
	durs  [Num]int64
	trace uint64
	job   int64
	shard int32
	live  bool // between Start and End
}

// Start opens a timing record.  sink, which may be nil, consumes it at End.
// trace may be 0 when span tracing sampled the request out — phase timing
// works regardless.
func Start(sink Sink, trace uint64, job int64) Rec {
	n := NowNanos()
	return Rec{sink: sink, start: n, last: n, trace: trace, job: job, shard: -1, live: true}
}

// Mark attributes the time elapsed since the previous mark (or Start) to
// the given phase.  Phases may be marked repeatedly (probe retries
// accumulate) and in any order.
func (r *Rec) Mark(ph Phase) {
	if r == nil || !r.live {
		return
	}
	n := NowNanos()
	r.durs[ph] += n - r.last
	r.last = n
}

// SetShard records which shard ultimately admitted the job.
func (r *Rec) SetShard(shard int) {
	if r == nil || !r.live {
		return
	}
	r.shard = int32(shard)
}

// Durs returns the per-phase waterfall accumulated so far; once the
// record has ended it sums to Total exactly.
func (r *Rec) Durs() [Num]int64 {
	if r == nil {
		return [Num]int64{}
	}
	return r.durs
}

// Began returns the monotonic reading (NowNanos clock) the record started
// at.
func (r *Rec) Began() int64 {
	if r == nil {
		return 0
	}
	return r.start
}

// Total returns the nanoseconds from Start to the latest mark — once the
// record has ended, the request's end-to-end time.
func (r *Rec) Total() int64 {
	if r == nil {
		return 0
	}
	return r.last - r.start
}

// End closes the record: the residual since the last mark goes to the
// ack phase and the sink, if there is one, consumes the waterfall.  End is
// idempotent.
func (r *Rec) End() {
	if r == nil || !r.live {
		return
	}
	r.live = false
	n := NowNanos()
	r.durs[ack] += n - r.last
	r.last = n
	if r.sink != nil {
		r.sink.Done(r.trace, r.job, r.shard, n-r.start, r.durs, n)
	}
}
