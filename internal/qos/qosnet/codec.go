package qosnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/qos"
)

// Wire limits, enforced by the decoder before it allocates and by the
// encoder before it sends.  Strings are bounded by frame.MaxString.
const (
	wireVersion = 1
	maxFrame    = 1 << 20 // payload bytes
	maxCount    = 1 << 16 // elements of any one list
)

// op selects the request; a response echoes it.
type op uint8

const (
	opNegotiate op = iota + 1
	opObserve
	opStats
	opRetired // 4 is no op: codes keep their numbers, so a frame naming it is refused as unknown
	opPing
	opNegotiateDAG
)

// negotiates reports whether o's result is a grant or a rejection.
func (o op) negotiates() bool { return o == opNegotiate || o == opNegotiateDAG }

// status is a response's outcome.
type status uint8

const (
	statusOK       status = iota // the op's result follows
	statusRejected               // negotiation ops only: admission control said no; nothing follows
	statusError                  // a message follows
)

// request is a decoded request frame.  Only the fields its op carries are
// on the wire.
type request struct {
	op  op
	job core.Job    // opNegotiate
	dag core.DAGJob // opNegotiateDAG
	now float64     // opObserve
}

// response is a decoded response frame.  op is 0 when the server could not
// read the request it is answering (always with statusError).
type response struct {
	op     op
	status status
	err    string     // statusError
	grant  *qos.Grant // opNegotiate, opNegotiateDAG
	stats  core.Stats // opStats
}

// encoder appends one frame to a buffer — beginFrame, the payload's fields,
// endFrame — and remembers the first value that does not fit the wire
// limits.
type encoder struct {
	b     []byte
	start int // where the frame's header begins in b
	err   error
}

// beginFrame starts a frame at the end of b, leaving room for its header.
func beginFrame(b []byte) encoder {
	return encoder{b: append(b, make([]byte, frame.HeaderLen)...), start: len(b)}
}

// endFrame writes the header over the finished payload and returns the
// buffer, or the buffer as beginFrame found it and the error.
func (e *encoder) endFrame() ([]byte, error) {
	payload := e.b[e.start+frame.HeaderLen:]
	if len(payload) > maxFrame {
		e.fail("frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	if e.err != nil {
		return e.b[:e.start], e.err
	}
	frame.PutHeader(e.b[e.start:e.start+frame.HeaderLen], payload)
	return e.b, nil
}

func (e *encoder) u8(v uint8)    { e.b = append(e.b, v) }
func (e *encoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *encoder) bool(v bool)   { e.b = frame.AppendBool(e.b, v) }

// f64 writes v's IEEE-754 bits, most significant byte first, behind a count
// of the bytes that remain once trailing zero bytes are dropped: bit-exact
// for every value (NaN payloads and -0 included), one byte for 0, three for
// the round numbers qualities and durations usually are, nine at worst.
func (e *encoder) f64(v float64) {
	u := math.Float64bits(v)
	n := 8 - bits.TrailingZeros64(u)/8
	e.b = binary.BigEndian.AppendUint64(append(e.b, byte(n)), u)
	e.b = e.b[:len(e.b)-8+n]
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("qosnet: "+format, args...)
	}
}

func (e *encoder) str(s string) {
	if len(s) > frame.MaxString {
		e.fail("string of %d bytes exceeds limit %d", len(s), frame.MaxString)
		return
	}
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) count(n int, what string) {
	if n > maxCount {
		e.fail("%s count %d exceeds limit %d", what, n, maxCount)
	}
	e.uint(uint64(n))
}

// decoder is the shared cursor plus this protocol's two field types, and
// where a decoded job's lists and names come from (requests only) and a
// decoded grant's box (responses only).
type decoder struct {
	frame.Cursor
	mem   *carver
	boxes *qos.GrantBoxes
}

// Elements per part of a job chunk.  A Figure-4 job takes two chains, four
// tasks and, its chain names interned, its own name of some twenty bytes,
// so a job chunk serves exactly 16 Figure-4 requests.  The name part holds
// 16 names of up to 39 bytes; with it, and the 8-byte header the runtime
// puts before an object of pointers this large, the chunk is 6 784 bytes,
// one of the runtime's size classes, so no byte it pins goes unused.
const (
	chainChunk = 32  // × 48 bytes
	taskChunk  = 64  // × 72 bytes
	nameChunk  = 632 // bytes
	// keptChunk is the size of a chunk of kept names.
	keptChunk = 1024 // bytes
	// internMax bounds a connection's interned names: a constant, so no
	// client can grow the table past it, however many names it sends.
	internMax = 64
)

// jobChunk is the memory a carver cuts decoded jobs from: one allocation,
// its chains, its tasks and their short names cut independently.
type jobChunk struct {
	chains [chainChunk]core.Chain
	tasks  [taskChunk]core.Task
	names  [nameChunk]byte
}

// carver is one connection's supply of the memory a decoded core.Job points
// into — its chains, their tasks, every name — cut from chunks a few dozen
// requests share, so a request costs a fraction of an allocation instead
// of six.  What it hands out is carved and never recycled: no region is
// handed out twice and none is written after the decoder that asked for it
// returns, so whoever keeps a decoded job (an observer, an SLO hook, a
// forensic ring) keeps it intact for as long as it likes.
//
// A job's lists, and its own and its tasks' names up to 39 bytes, come
// from a job chunk; a fresh one starts when any of its three parts runs
// short.  What keeping a job costs is that chunk, about 6.8 KB however
// small the job, or two if the job straddles a fresh one, which leaves the
// first pointing into the second.  Nothing that outlives its job may point
// into a job chunk, or it would keep that chunk and the chunks after it
// alive.  So chain and tenant names, the only strings that do (the plane's
// live set keeps a grant's tenant, and the intern table the names it
// holds), come from chunks of kept names, 1 KiB that hold no pointers, and
// so do longer job and task names, which would run a job chunk's name part
// short long before its lists.  A list longer than half of its part, or a
// name longer than half a chunk of kept names, is its own allocation.
//
// Chain and tenant names, which a stream repeats, are interned: the first
// internMax distinct ones a connection decodes are kept in a table, and
// each later occurrence is the string decoded first, which cost nothing
// more.  Strings never change, so sharing one leaves every kept job intact;
// what the table pins is at most internMax names, in at most as many
// chunks of kept names.  A job's own name is unique to it, and task names
// can be too (a pipeline's stages), so both are always carved: a request
// of fresh task names would otherwise fill the table before the chain and
// tenant names it exists for.  The zero carver is ready to use.
type carver struct {
	chains   []core.Chain // what is left of the current job chunk
	tasks    []core.Task
	names    []byte
	kept     []byte // what is left of the current chunk of kept names
	interned map[string]string
}

// carve cuts n zeroed elements off *free, one of m's three parts, starting
// a fresh job chunk when what is left is too short.  The result's capacity
// is its length: appending to it cannot reach the next request's elements.
func carve[T any](m *carver, free *[]T, part, n int) []T {
	if n > part/2 {
		return make([]T, n)
	}
	if len(*free) < n {
		c := new(jobChunk)
		m.chains, m.tasks, m.names = c.chains[:], c.tasks[:], c.names[:]
	}
	out := (*free)[:n:n]
	*free = (*free)[n:]
	return out
}

// name returns b as a string over bytes carved for it: from the job
// chunk's name part if it is no longer than a 16th of it, a Figure-4
// request's share, so that long names do not run a chunk short long before
// its lists; from a chunk of kept names if it is longer.
func (m *carver) name(b []byte) string {
	switch {
	case len(b) < 2:
		return string(b) // does not allocate
	case len(b) > nameChunk/16:
		return m.keep(b)
	}
	return bytesString(b, carve(m, &m.names, nameChunk, len(b)))
}

// keep returns b as a string over bytes cut for it from the current chunk
// of kept names, starting a fresh one when what is left is too short.  A
// name longer than half a chunk is its own allocation.
func (m *carver) keep(b []byte) string {
	if len(b) > keptChunk/2 {
		return string(b)
	}
	if len(m.kept) < len(b) {
		m.kept = make([]byte, keptChunk)
	}
	s := bytesString(b, m.kept[:len(b)])
	m.kept = m.kept[len(b):]
	return s
}

// bytesString copies b into to, of its length, and returns to as a string.
// Nothing writes to again, the invariant a strings.Builder relies on for
// the same conversion, so the string stays what it was.
func bytesString(b, to []byte) string {
	copy(to, b)
	return unsafe.String(&to[0], len(to))
}

// intern returns b as the string the connection decoded first for those
// bytes, cutting it from a chunk of kept names, and keeping it while the
// table has room, if it is new.  The lookup converts b without allocating.
func (m *carver) intern(b []byte) string {
	if len(b) < 2 || len(b) > keptChunk/2 {
		return string(b) // free, or too long to keep for the connection's life
	}
	if s, ok := m.interned[string(b)]; ok {
		return s
	}
	s := m.keep(b)
	if m.interned == nil {
		m.interned = make(map[string]string, internMax)
	}
	if len(m.interned) < internMax {
		m.interned[s] = s
	}
	return s
}

// name reads a string as VarStr does, into the carver's memory.
func (d *decoder) name() string { return d.mem.name(d.VarStrBytes()) }

// internedName reads a chain or tenant name, interned (carver.intern).
func (d *decoder) internedName() string { return d.mem.intern(d.VarStrBytes()) }

func (d *decoder) int() int { return int(d.Varint()) }

func (d *decoder) f64() float64 {
	n := int(d.U8())
	if n > 8 {
		d.Fail("float of %d bytes", n)
		return 0
	}
	b := d.Take(n)
	if len(b) > 0 && b[n-1] == 0 {
		d.Fail("non-canonical float (trailing zero byte)")
		return 0
	}
	var u uint64
	for _, x := range b {
		u = u<<8 | uint64(x)
	}
	return math.Float64frombits(u << (8 * (8 - n)))
}

// Least bytes one element of each list takes, which is what a count is
// checked against before its list is allocated.
const (
	minTask      = 6 // name, procs, duration, deadline, quality, malleable
	minChain     = 3 // name, quality, task count
	minDAGTask   = minTask + 1
	minPlacement = 4 // task, start, finish, procs
)

func (e *encoder) task(t *core.Task) {
	e.str(t.Name)
	e.int(t.Procs)
	e.f64(t.Duration)
	e.f64(t.Deadline)
	e.f64(t.Quality)
	e.bool(t.Malleable)
	if t.Malleable { // Work and MaxProcs mean nothing otherwise (core.Task)
		e.f64(t.Work)
		e.int(t.MaxProcs)
	}
}

func (d *decoder) task(t *core.Task) {
	t.Name = d.name()
	t.Procs = d.int()
	t.Duration = d.f64()
	t.Deadline = d.f64()
	t.Quality = d.f64()
	t.Malleable = d.Bool()
	if t.Malleable {
		t.Work = d.f64()
		t.MaxProcs = d.int()
	}
}

func (e *encoder) job(j *core.Job) {
	e.int(j.ID)
	e.str(j.Name)
	e.f64(j.Release)
	e.uint(j.Trace)
	e.uint(j.Span)
	e.str(j.Tenant)
	e.int(j.Class)
	e.count(len(j.Chains), "chain")
	for i := range j.Chains {
		c := &j.Chains[i]
		e.str(c.Name)
		e.f64(c.Quality)
		e.count(len(c.Tasks), "task")
		for k := range c.Tasks {
			e.task(&c.Tasks[k])
		}
	}
}

func (d *decoder) job(j *core.Job) {
	j.ID = d.int()
	j.Name = d.name()
	j.Release = d.f64()
	j.Trace = d.Uvarint()
	j.Span = d.Uvarint()
	j.Tenant = d.internedName()
	j.Class = d.int()
	if n := d.VarCount(maxCount, minChain, "chain"); n > 0 {
		j.Chains = carve(d.mem, &d.mem.chains, chainChunk, n)
	}
	for i := range j.Chains {
		if d.Err() != nil {
			return
		}
		c := &j.Chains[i]
		c.Name = d.internedName()
		c.Quality = d.f64()
		if n := d.VarCount(maxCount, minTask, "task"); n > 0 {
			c.Tasks = carve(d.mem, &d.mem.tasks, taskChunk, n)
		}
		for k := range c.Tasks {
			d.task(&c.Tasks[k])
		}
	}
}

func (e *encoder) dagJob(j *core.DAGJob) {
	e.int(j.ID)
	e.str(j.Name)
	e.f64(j.Release)
	e.count(len(j.Alts), "alternative")
	for i := range j.Alts {
		a := &j.Alts[i]
		e.str(a.Name)
		e.f64(a.Quality)
		e.count(len(a.Tasks), "task")
		for k := range a.Tasks {
			t := &a.Tasks[k]
			e.task(&t.Task)
			e.ints(t.Preds, "predecessor")
		}
	}
}

func (d *decoder) dagJob(j *core.DAGJob) {
	j.ID = d.int()
	j.Name = d.VarStr()
	j.Release = d.f64()
	if n := d.VarCount(maxCount, minChain, "alternative"); n > 0 {
		j.Alts = make([]core.DAG, n)
	}
	for i := range j.Alts {
		if d.Err() != nil {
			return
		}
		a := &j.Alts[i]
		a.Name = d.VarStr()
		a.Quality = d.f64()
		if n := d.VarCount(maxCount, minDAGTask, "task"); n > 0 {
			a.Tasks = make([]core.DAGTask, n)
		}
		for k := range a.Tasks {
			if d.Err() != nil {
				return
			}
			t := &a.Tasks[k]
			d.task(&t.Task)
			t.Preds = d.ints("predecessor")
		}
	}
}

func (e *encoder) ints(v []int, what string) {
	e.count(len(v), what)
	for _, x := range v {
		e.int(x)
	}
}

func (d *decoder) ints(what string) []int {
	n := d.VarCount(maxCount, 1, what)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

func (e *encoder) grant(g *qos.Grant) {
	e.int(g.JobID)
	e.int(g.Chain)
	e.f64(g.Quality)
	e.uint(g.Trace)
	e.int(g.Shard)
	e.int(g.Placement.JobID)
	e.int(g.Placement.Chain)
	e.count(len(g.Placement.Tasks), "placed task")
	for _, tp := range g.Placement.Tasks {
		e.int(tp.Task)
		e.f64(tp.Start)
		e.f64(tp.Finish)
		e.int(tp.Procs)
	}
}

// grant reads a grant into a box of the decoder's, as the arbitrator made it.
func (d *decoder) grant() *qos.Grant {
	box := d.boxes.Next()
	g := &box.Grant
	g.JobID = d.int()
	g.Chain = d.int()
	g.Quality = d.f64()
	g.Trace = d.Uvarint()
	g.Shard = d.int()
	g.Placement.JobID = d.int()
	g.Placement.Chain = d.int()
	if n := d.VarCount(maxCount, minPlacement, "placed task"); n > len(box.Tasks) {
		g.Placement.Tasks = make([]core.TaskPlacement, n)
	} else if n > 0 {
		g.Placement.Tasks = box.Tasks[:n:n]
	}
	for i := range g.Placement.Tasks {
		tp := &g.Placement.Tasks[i]
		tp.Task = d.int()
		tp.Start = d.f64()
		tp.Finish = d.f64()
		tp.Procs = d.int()
	}
	return g
}

func (e *encoder) stats(s *core.Stats) {
	e.int(s.Admitted)
	e.int(s.Rejected)
	e.ints(s.TunableChosen, "tunable-chosen")
	e.f64(s.ReservedArea)
	e.f64(s.QualitySum)
	e.int(s.ChainsTried)
	e.int(s.HolesProbed)
	e.int(s.PlanFailures)
}

func (d *decoder) stats(s *core.Stats) {
	s.Admitted = d.int()
	s.Rejected = d.int()
	s.TunableChosen = d.ints("tunable-chosen")
	s.ReservedArea = d.f64()
	s.QualitySum = d.f64()
	s.ChainsTried = d.int()
	s.HolesProbed = d.int()
	s.PlanFailures = d.int()
}

// appendRequest appends r's frame to b.  An error means r does not fit the
// wire limits; nothing was appended.
func appendRequest(b []byte, r *request) ([]byte, error) {
	e := beginFrame(b)
	e.u8(wireVersion)
	e.u8(uint8(r.op))
	switch r.op {
	case opNegotiate:
		e.job(&r.job)
	case opNegotiateDAG:
		e.dagJob(&r.dag)
	case opObserve:
		e.f64(r.now)
	}
	return e.endFrame()
}

// decodeRequest parses a request payload into r, a job's lists and names
// carved from mem.  Everything but the one canonical encoding of a request
// this version defines is an error.
func decodeRequest(payload []byte, r *request, mem *carver) error {
	d := decoder{Cursor: frame.NewCursor("qosnet", payload), mem: mem}
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("qosnet: frame has version %d, this end speaks version %d", v, wireVersion)
	}
	r.op = op(d.U8())
	switch r.op {
	case opNegotiate:
		d.job(&r.job)
	case opNegotiateDAG:
		d.dagJob(&r.dag)
	case opObserve:
		r.now = d.f64()
	case opStats, opPing:
	default:
		if d.Err() == nil {
			return fmt.Errorf("qosnet: unknown op %d", r.op)
		}
	}
	return d.Done()
}

// appendResponse appends r's frame to b.  A result that does not fit the
// wire limits goes out as an error response instead, which always fits.
func appendResponse(b []byte, r *response) []byte {
	e := beginFrame(b)
	e.u8(wireVersion)
	e.u8(uint8(r.op))
	e.u8(uint8(r.status))
	switch {
	case r.status == statusError:
		e.str(r.err[:min(len(r.err), frame.MaxString)])
	case r.status == statusRejected:
	case r.op.negotiates():
		e.grant(r.grant)
	case r.op == opStats:
		e.stats(&r.stats)
	}
	out, err := e.endFrame()
	if err != nil {
		return appendResponse(out, &response{op: r.op, status: statusError, err: err.Error()})
	}
	return out
}

// decodeResponse parses a response payload into r, a grant into a box from
// boxes.
func decodeResponse(payload []byte, r *response, boxes *qos.GrantBoxes) error {
	d := decoder{Cursor: frame.NewCursor("qosnet", payload), boxes: boxes}
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("qosnet: frame has version %d, this end speaks version %d", v, wireVersion)
	}
	r.op = op(d.U8())
	r.status = status(d.U8())
	switch {
	case d.Err() != nil:
	case r.op > opNegotiateDAG || r.op == opRetired:
		return fmt.Errorf("qosnet: unknown op %d", r.op)
	case r.status > statusError:
		return fmt.Errorf("qosnet: unknown status %d", r.status)
	case r.status == statusError:
		r.err = d.VarStr()
	case r.op == 0:
		return fmt.Errorf("qosnet: status %d answers no op", r.status)
	case r.status == statusRejected:
		if !r.op.negotiates() {
			return fmt.Errorf("qosnet: op %d answered with a rejection", r.op)
		}
	case r.op.negotiates():
		r.grant = d.grant()
	case r.op == opStats:
		d.stats(&r.stats)
	}
	return d.Done()
}
