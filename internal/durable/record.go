// Package durable is the admission plane's durability layer: an
// append-only write-ahead log of admission/renegotiation/release/shed
// events, periodic capacity-profile snapshots with log truncation, and
// replay-on-open recovery that reconstructs the arbitrator's committed
// state bit-exactly.  All I/O goes through the vfs seam, so the same store
// runs against the real filesystem and against the fault-injecting
// in-memory filesystem the crash-loop harness uses.
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
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"milan/internal/core"
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
	// KindCapacity: a shard was resized (rebalancer migration or operator
	// action).
	KindCapacity Kind = 3
	// KindReject: admission control refused the job (no feasible chain).
	KindReject Kind = 4
	// KindShed: the fairness shedder refused the job before the
	// arbitrator saw it.  Shed jobs must never reappear as grants.
	KindShed Kind = 5
	// KindComplete: a granted reservation finished; the grant leaves the
	// live set.
	KindComplete Kind = 6
	// KindRenegotiate: an in-flight grant's remaining tasks were re-placed
	// (capacity renegotiation); the placement replaces the grant's.
	KindRenegotiate Kind = 7
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
	case KindShed:
		return "shed"
	case KindComplete:
		return "complete"
	case KindRenegotiate:
		return "renegotiate"
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
	Shard   int     // KindAdmit/Capacity/Reject/Complete/Renegotiate
	Procs   int     // KindCapacity
	JobID   int     // KindAdmit/Reject/Shed/Complete/Renegotiate
	Chain   int     // KindAdmit/Renegotiate
	Quality float64 // KindAdmit
	Tunable bool    // KindAdmit
	Tenant  string  // KindAdmit/Reject/Shed
	Class   int     // KindAdmit/Reject/Shed
	Reason  string  // KindShed
	Finish  float64 // KindComplete

	Tasks []core.TaskPlacement // KindAdmit/Renegotiate
}

// Decoder hardening limits: a corrupt length or count must produce an
// error, never an allocation stampede or a panic.
const (
	maxFramePayload = 16 << 20
	maxTasks        = 1 << 16
	maxStringLen    = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendUint64 and friends build payloads in little-endian order.
func appendUint64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

func appendUint32(b []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(b, buf[:]...)
}

func appendFloat(b []byte, v float64) []byte { return appendUint64(b, math.Float64bits(v)) }

func appendString(b []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTasks(b []byte, tasks []core.TaskPlacement) []byte {
	b = appendUint32(b, uint32(len(tasks)))
	for _, tp := range tasks {
		b = appendUint32(b, uint32(tp.Task))
		b = appendUint32(b, uint32(tp.Procs))
		b = appendFloat(b, tp.Start)
		b = appendFloat(b, tp.Finish)
	}
	return b
}

// EncodeRecord serializes the record payload (no framing).
func EncodeRecord(r *Record) []byte {
	return appendRecord(make([]byte, 0, 64+32*len(r.Tasks)), r)
}

// appendRecord appends the record payload to b.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Kind))
	b = appendUint64(b, r.LSN)
	switch r.Kind {
	case KindObserve:
		b = appendFloat(b, r.Now)
	case KindCapacity:
		b = appendUint32(b, uint32(r.Shard))
		b = appendUint32(b, uint32(r.Procs))
	case KindAdmit, KindRenegotiate:
		b = appendUint32(b, uint32(r.Shard))
		b = appendUint64(b, uint64(int64(r.JobID)))
		b = appendUint32(b, uint32(r.Chain))
		b = appendFloat(b, r.Quality)
		b = appendBool(b, r.Tunable)
		b = appendString(b, r.Tenant)
		b = appendUint32(b, uint32(int32(r.Class)))
		b = appendTasks(b, r.Tasks)
	case KindReject:
		b = appendUint32(b, uint32(r.Shard))
		b = appendUint64(b, uint64(int64(r.JobID)))
		b = appendString(b, r.Tenant)
		b = appendUint32(b, uint32(int32(r.Class)))
	case KindShed:
		b = appendUint64(b, uint64(int64(r.JobID)))
		b = appendString(b, r.Tenant)
		b = appendUint32(b, uint32(int32(r.Class)))
		b = appendString(b, r.Reason)
	case KindComplete:
		b = appendUint32(b, uint32(r.Shard))
		b = appendUint64(b, uint64(int64(r.JobID)))
		b = appendFloat(b, r.Finish)
	}
	return b
}

// cursor is a bounds-checked little-endian payload reader.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail("durable: truncated payload (want %d bytes at %d of %d)", n, c.off, len(c.b))
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// boolean accepts only the canonical encodings 0 and 1, so every cleanly
// decoded payload re-encodes to the exact same bytes.
func (c *cursor) boolean() bool {
	b := c.u8()
	if b > 1 {
		c.fail("durable: non-canonical bool byte %#x", b)
	}
	return b == 1
}

func (c *cursor) str() string {
	n := c.u32()
	if n > maxStringLen {
		c.fail("durable: string length %d exceeds limit %d", n, maxStringLen)
		return ""
	}
	b := c.take(int(n))
	return string(b)
}

func (c *cursor) tasks() []core.TaskPlacement {
	n := c.u32()
	if n > maxTasks {
		c.fail("durable: task count %d exceeds limit %d", n, maxTasks)
		return nil
	}
	// Each task costs 24 bytes; reject counts the remaining bytes cannot
	// hold before allocating.
	if c.err == nil && int(n)*24 > len(c.b)-c.off {
		c.fail("durable: task count %d exceeds remaining payload", n)
		return nil
	}
	out := make([]core.TaskPlacement, 0, n)
	for i := uint32(0); i < n && c.err == nil; i++ {
		out = append(out, core.TaskPlacement{
			Task:   int(int32(c.u32())),
			Procs:  int(c.u32()),
			Start:  c.f64(),
			Finish: c.f64(),
		})
	}
	return out
}

// DecodeRecord parses a record payload.  Truncated, oversized or
// trailing-garbage payloads return an error; no input may panic (the fuzz
// target pins this).
func DecodeRecord(payload []byte) (Record, error) {
	c := &cursor{b: payload}
	var r Record
	r.Kind = Kind(c.u8())
	r.LSN = c.u64()
	switch r.Kind {
	case KindObserve:
		r.Now = c.f64()
	case KindCapacity:
		r.Shard = int(int32(c.u32()))
		r.Procs = int(int32(c.u32()))
	case KindAdmit, KindRenegotiate:
		r.Shard = int(int32(c.u32()))
		r.JobID = int(int64(c.u64()))
		r.Chain = int(int32(c.u32()))
		r.Quality = c.f64()
		r.Tunable = c.boolean()
		r.Tenant = c.str()
		r.Class = int(int32(c.u32()))
		r.Tasks = c.tasks()
	case KindReject:
		r.Shard = int(int32(c.u32()))
		r.JobID = int(int64(c.u64()))
		r.Tenant = c.str()
		r.Class = int(int32(c.u32()))
	case KindShed:
		r.JobID = int(int64(c.u64()))
		r.Tenant = c.str()
		r.Class = int(int32(c.u32()))
		r.Reason = c.str()
	case KindComplete:
		r.Shard = int(int32(c.u32()))
		r.JobID = int(int64(c.u64()))
		r.Finish = c.f64()
	default:
		return Record{}, fmt.Errorf("durable: unknown record kind %d", uint8(r.Kind))
	}
	if c.err != nil {
		return Record{}, c.err
	}
	if c.off != len(payload) {
		return Record{}, fmt.Errorf("durable: %d trailing bytes after %s record", len(payload)-c.off, r.Kind)
	}
	return r, nil
}

// frameHeaderLen is the size of a frame's [len u32][crc32c u32] header.
const frameHeaderLen = 8

// putFrameHeader fills hdr (frameHeaderLen bytes) with payload's length and
// checksum.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

// writeFrame writes one length-prefixed, checksummed frame:
// [len u32][crc32c u32][payload], header and payload as two writes — the
// snapshot's framing, whose payload is too large to be worth copying
// behind its header.  Log records go out as one write (Store.Append).
func writeFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], payload)
	if n, err := w.Write(hdr[:]); err != nil {
		return n, err
	}
	n, err := w.Write(payload)
	return frameHeaderLen + n, err
}

// readFrame reads one frame from r.  io.EOF means a clean end; any other
// error (truncation mid-frame, length over limit, checksum mismatch) means
// the tail is torn or corrupt.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("durable: torn frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxFramePayload {
		return nil, fmt.Errorf("durable: frame length %d exceeds limit %d", length, maxFramePayload)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("durable: torn frame payload: %w", err)
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("durable: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	return payload, nil
}
