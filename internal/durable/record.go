// Package durable is the admission plane's durability layer: an
// append-only write-ahead log of admission/release/shed events, periodic
// capacity-profile snapshots with log truncation, and replay-on-open
// recovery that reconstructs the arbitrator's committed state bit-exactly.
// All I/O goes through the vfs seam, so the same store runs against the
// real filesystem and against the fault-injecting in-memory filesystem the
// crash-loop harness uses.
//
// The durability contract: a grant is acknowledged to the caller only
// after its admit record is appended (and synced, per the configured sync
// policy).  On an honest disk with SyncAlways, every acknowledged grant
// therefore survives any crash; recovery replays the log onto the newest
// snapshot and yields a scheduler state bitwise-identical to one that
// never crashed (cmd/crashtest proves this under injected write errors,
// unsynced-data loss and fsync/rename lie modes).
package durable

import (
	"fmt"

	"milan/internal/core"
	"milan/internal/frame"
)

// Kind enumerates the WAL record types.
type Kind uint8

// Record kinds.
const (
	// KindAdmit: a committed grant — the chosen chain and the reservation
	// of every task, verbatim.  Replay re-reserves the placement; it never
	// re-plans, so recovery is exact even if the planner's heuristics
	// change between versions.
	KindAdmit Kind = 1
	// KindObserve: the plane's clock advanced; replay folds elapsed
	// history exactly as the live TrimBefore did.
	KindObserve Kind = 2
	// KindCapacity: the plane was resized by one processor (the unit of
	// fed.Arbitrator.SetTotalCapacity, driven by an operator or a broker).
	KindCapacity Kind = 3
	// KindReject: admission control refused the job (no feasible chain).
	KindReject Kind = 4
	// kindShed: the fairness shedder refused the job before the
	// arbitrator saw it.  Shed jobs must never reappear as grants.
	kindShed Kind = 5
	// kindComplete: a granted reservation finished; the grant leaves the
	// live set.
	kindComplete Kind = 6
	// Kind 7 is reserved for a renegotiation record, whose replay must
	// release the placement it moves (ROADMAP item 2).  Nothing writes it,
	// so it decodes as an unknown kind and recovery stops there.
)

func (k Kind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindObserve:
		return "observe"
	case KindCapacity:
		return "capacity"
	case KindReject:
		return "reject"
	case kindShed:
		return "shed"
	case kindComplete:
		return "complete"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one WAL entry.  Which fields are meaningful depends on Kind;
// times and qualities are serialized as raw float64 bits, so replay
// reproduces the exact committed arithmetic.
type Record struct {
	LSN  uint64
	Kind Kind

	Now     float64 // KindObserve
	Procs   int     // KindCapacity
	JobID   int     // KindAdmit/Reject/Shed/Complete
	Chain   int     // KindAdmit
	Quality float64 // KindAdmit
	Tunable bool    // KindAdmit
	Tenant  string  // KindAdmit/Reject/Shed
	Class   int     // KindAdmit/Reject/Shed
	Reason  string  // kindShed
	Finish  float64 // kindComplete

	Tasks []core.TaskPlacement // KindAdmit
}

// Decoder hardening limits: a corrupt length or count must produce an
// error, never an allocation stampede or a panic.
const (
	maxFramePayload = 16 << 20
	maxTasks        = 1 << 16
)

func appendTasks(b []byte, tasks []core.TaskPlacement) []byte {
	b = frame.AppendU32(b, uint32(len(tasks)))
	for _, tp := range tasks {
		b = frame.AppendU32(b, uint32(tp.Task))
		b = frame.AppendU32(b, uint32(tp.Procs))
		b = frame.AppendF64(b, tp.Start)
		b = frame.AppendF64(b, tp.Finish)
	}
	return b
}

// appendRecord appends the record payload to b.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Kind))
	b = frame.AppendU64(b, r.LSN)
	switch r.Kind {
	case KindObserve:
		b = frame.AppendF64(b, r.Now)
	case KindCapacity:
		b = frame.AppendU32(b, uint32(r.Procs))
	case KindAdmit:
		b = frame.AppendU64(b, uint64(int64(r.JobID)))
		b = frame.AppendU32(b, uint32(r.Chain))
		b = frame.AppendF64(b, r.Quality)
		b = frame.AppendBool(b, r.Tunable)
		b = frame.AppendStr(b, r.Tenant)
		b = frame.AppendU32(b, uint32(int32(r.Class)))
		b = appendTasks(b, r.Tasks)
	case KindReject:
		b = frame.AppendU64(b, uint64(int64(r.JobID)))
		b = frame.AppendStr(b, r.Tenant)
		b = frame.AppendU32(b, uint32(int32(r.Class)))
	case kindShed:
		b = frame.AppendU64(b, uint64(int64(r.JobID)))
		b = frame.AppendStr(b, r.Tenant)
		b = frame.AppendU32(b, uint32(int32(r.Class)))
		b = frame.AppendStr(b, r.Reason)
	case kindComplete:
		b = frame.AppendU64(b, uint64(int64(r.JobID)))
		b = frame.AppendF64(b, r.Finish)
	}
	return b
}

// decodeTasks reads a placement list; each task costs 24 bytes.
func decodeTasks(c *frame.Cursor) []core.TaskPlacement {
	n := c.Count(maxTasks, 24, "task")
	out := make([]core.TaskPlacement, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		out = append(out, core.TaskPlacement{
			Task:   int(int32(c.U32())),
			Procs:  int(c.U32()),
			Start:  c.F64(),
			Finish: c.F64(),
		})
	}
	return out
}

// DecodeRecord parses a record payload.  Truncated, oversized or
// trailing-garbage payloads return an error; no input may panic (the fuzz
// target pins this).
func DecodeRecord(payload []byte) (Record, error) {
	c := frame.NewCursor("durable", payload)
	var r Record
	r.Kind = Kind(c.U8())
	r.LSN = c.U64()
	switch r.Kind {
	case KindObserve:
		r.Now = c.F64()
	case KindCapacity:
		r.Procs = int(int32(c.U32()))
	case KindAdmit:
		r.JobID = int(int64(c.U64()))
		r.Chain = int(int32(c.U32()))
		r.Quality = c.F64()
		r.Tunable = c.Bool()
		r.Tenant = c.Str()
		r.Class = int(int32(c.U32()))
		r.Tasks = decodeTasks(&c)
	case KindReject:
		r.JobID = int(int64(c.U64()))
		r.Tenant = c.Str()
		r.Class = int(int32(c.U32()))
	case kindShed:
		r.JobID = int(int64(c.U64()))
		r.Tenant = c.Str()
		r.Class = int(int32(c.U32()))
		r.Reason = c.Str()
	case kindComplete:
		r.JobID = int(int64(c.U64()))
		r.Finish = c.F64()
	default:
		return Record{}, fmt.Errorf("durable: unknown record kind %d", uint8(r.Kind))
	}
	if err := c.Done(); err != nil {
		return Record{}, err
	}
	return r, nil
}
