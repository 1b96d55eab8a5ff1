package phase

import (
	"testing"
	"time"
)

type captureSink struct {
	trace   uint64
	job     int64
	shard   int32
	total   int64
	durs    [Num]int64
	endMono int64
	calls   int
}

func (c *captureSink) Done(trace uint64, job int64, shard int32, total int64, durs [Num]int64, endMono int64) {
	c.trace, c.job, c.shard, c.total, c.durs, c.endMono = trace, job, shard, total, durs, endMono
	c.calls++
}

func TestRecLifecycle(t *testing.T) {
	var sink captureSink
	rec := Start(&sink, 99, 42)
	time.Sleep(time.Millisecond)
	rec.Mark(Route)
	time.Sleep(time.Millisecond)
	rec.Mark(Probe)
	rec.SetShard(3)
	time.Sleep(time.Millisecond)
	rec.End()
	if sink.calls != 1 {
		t.Fatalf("sink called %d times, want 1", sink.calls)
	}
	if sink.trace != 99 || sink.job != 42 || sink.shard != 3 {
		t.Fatalf("identity = trace %d job %d shard %d", sink.trace, sink.job, sink.shard)
	}
	if sink.durs[Route] <= 0 || sink.durs[Probe] <= 0 {
		t.Fatalf("marked phases not timed: %v", sink.durs)
	}
	// The residual after the last mark lands in ack, so the phases
	// always sum to the end-to-end total.
	if sink.durs[ack] <= 0 {
		t.Fatalf("residual not attributed to ack: %v", sink.durs)
	}
	var sum int64
	for _, d := range sink.durs {
		sum += d
	}
	if sum != sink.total {
		t.Fatalf("phase sum %d != total %d", sum, sink.total)
	}
	// End is idempotent.
	rec.End()
	if sink.calls != 1 {
		t.Fatalf("End not idempotent: %d calls", sink.calls)
	}
}

// A record needs no sink to time: whoever started it reads the finished
// waterfall off it.
func TestRecWithoutSinkStillTimes(t *testing.T) {
	before := NowNanos()
	rec := Start(nil, 0, 1)
	time.Sleep(time.Millisecond)
	rec.Mark(Plan)
	rec.End()
	rec.Mark(Plan) // after End: no-op, the waterfall is final
	var sum int64
	for _, d := range rec.Durs() {
		sum += d
	}
	if rec.Durs()[Plan] <= 0 || sum != rec.Total() || rec.Began() < before {
		t.Fatalf("durs %v total %d began %d (started after %d)", rec.Durs(), rec.Total(), rec.Began(), before)
	}
}

func TestRecMarkAccumulates(t *testing.T) {
	var sink captureSink
	rec := Start(&sink, 0, 1)
	time.Sleep(500 * time.Microsecond)
	rec.Mark(Probe)
	time.Sleep(500 * time.Microsecond)
	rec.Mark(Probe) // probe retries accumulate into one phase
	first := rec.Durs()[Probe]
	rec.End()
	if sink.durs[Probe] < first || first <= 0 {
		t.Fatalf("repeated marks did not accumulate: %d then %d", first, sink.durs[Probe])
	}
}

// The zero-cost contract: a nil *Rec and a sinkless Rec are inert and
// allocation-free through the whole lifecycle.
func TestRecNilSafe(t *testing.T) {
	var nilRec *Rec
	nilRec.Mark(Route)
	nilRec.SetShard(1)
	nilRec.End()
	if nilRec.Durs() != ([Num]int64{}) {
		t.Fatal("nil rec carries durations")
	}

	allocs := testing.AllocsPerRun(100, func() {
		var rec Rec // no sink: the plane-unset configuration
		rec.Mark(Route)
		rec.Mark(Probe)
		rec.SetShard(2)
		rec.End()
	})
	if allocs != 0 {
		t.Fatalf("inert record allocated %.1f/op, want 0", allocs)
	}
}

func TestPhaseNames(t *testing.T) {
	names := Names()
	for p, want := range map[Phase]string{Route: "route", Probe: "probe", Plan: "plan", Reserve: "reserve", Journal: "journal", ack: "ack"} {
		if names[p] != want {
			t.Errorf("Names()[%d] = %q, want %q", p, names[p], want)
		}
	}
}

func TestWallAtMonotonicBase(t *testing.T) {
	n := NowNanos()
	w := WallAt(n)
	now := float64(time.Now().UnixNano()) / 1e9
	if diff := now - w; diff < -1 || diff > 1 {
		t.Fatalf("WallAt drifted %.3fs from wall clock", diff)
	}
}
