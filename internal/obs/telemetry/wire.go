// Package telemetry federates the observability plane across processes: a
// versioned streaming wire protocol carrying registry snapshot deltas,
// completed spans, SLO objective states, headroom frontiers and ledger
// buckets from any process hosting an obs registry (Exporter), and an
// Aggregator that subscribes to N such nodes, merges their state with the
// existing Merge primitives and serves a live cluster view.
//
// The wire format follows the durability layer's discipline exactly: every
// message travels as one length-prefixed, crc32c-checksummed frame
// ([len u32][crc32c u32][payload], little-endian), and every payload has a
// strict canonical decoder — bounds-checked cursor, booleans restricted to
// 0/1, map keys required in strictly increasing order, exact payload
// consumption — so decode∘encode is the identity on every cleanly decoded
// message (FuzzTelemetryDecode pins this).
//
// A session is one exporter connection: a Hello frame (protocol version,
// node name, session ID, delta cadence), one full registry Snapshot, then
// incremental Delta frames plus span batches, SLO/headroom/ledger state
// and heartbeats on the delta cadence.  Reconnecting yields a fresh
// session whose leading snapshot REPLACES everything the subscriber had
// accumulated for the node — the snapshot-then-delta resync that makes
// restarts safe.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// Version is the protocol version carried in every Hello frame.  A
// subscriber refuses sessions with a version it does not speak.
// Version 2 added histogram bucket bounds (log-linear layouts) and the
// KindExemplars latency frame.
const Version = 2

// MsgKind enumerates the frame types of one telemetry session.
type MsgKind uint8

// Frame kinds.
const (
	// KindHello opens a session: protocol version, node identity, session
	// ID and the exporter's delta cadence.  Always the first frame.
	KindHello MsgKind = 1
	// KindSnapshot is a full registry snapshot.  Sent once after Hello;
	// it resets the subscriber's accumulated registry state for the node.
	KindSnapshot MsgKind = 2
	// KindDelta is an incremental registry delta since the previous
	// Snapshot/Delta frame: counter and histogram-bucket increments,
	// changed gauges, replaced stats.  Counter deltas are exact int64
	// arithmetic, so snapshot + Σ deltas equals the live registry
	// bit-for-bit on counters.
	KindDelta MsgKind = 3
	// KindSpans is a batch of completed spans.
	KindSpans MsgKind = 4
	// KindSLO is the exporting engine's SLO objective state: cumulative
	// counts plus per-objective sliding-window totals, enough for the
	// aggregator to re-run burn-rate alerting over the merged view.
	KindSLO MsgKind = 5
	// KindHeadroom is the node's current headroom frontier.
	KindHeadroom MsgKind = 6
	// KindLedger is the node's utilization-ledger snapshot, carried as
	// canonical JSON inside the checksummed frame.
	KindLedger MsgKind = 7
	// KindHeartbeat carries liveness, the frame sequence number and the
	// per-stream drop counters (frames coalesced, spans lost).
	KindHeartbeat MsgKind = 8
	// KindExemplars is the node's current tail-latency exemplars: the
	// slowest recent admissions' trace identities and per-phase
	// waterfalls.  State, not a log — each frame replaces the node's
	// previous set (the latest two exemplar windows), so the aggregator
	// can merge a cluster-wide top-K without double counting.
	KindExemplars MsgKind = 9
)

func (k MsgKind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindSnapshot:
		return "snapshot"
	case KindDelta:
		return "delta"
	case KindSpans:
		return "spans"
	case KindSLO:
		return "slo"
	case KindHeadroom:
		return "headroom"
	case KindLedger:
		return "ledger"
	case KindHeartbeat:
		return "heartbeat"
	case KindExemplars:
		return "exemplars"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Hello opens a session.
type Hello struct {
	Version  uint32  `json:"version"`
	Node     string  `json:"node"`
	Session  uint64  `json:"session"`
	Now      float64 `json:"now"`
	Interval float64 `json:"interval"` // delta cadence, seconds
}

// Heartbeat is the per-cadence liveness frame.  Seq increments once per
// tick; the drop counters are cumulative for the session, so a subscriber
// can attribute loss without extra round trips.
type Heartbeat struct {
	Now           float64 `json:"now"`
	Seq           uint64  `json:"seq"`
	DroppedFrames int64   `json:"dropped_frames"`
	DroppedSpans  int64   `json:"dropped_spans"`
	SpanTotal     int64   `json:"span_total"`
}

// Delta is an incremental registry update.  Seq numbers delivered deltas
// contiguously within a session (a delta that could not be enqueued is
// coalesced into the next one, never skipped), so any gap a subscriber
// observes means a torn stream and forces a resync.
type Delta struct {
	Seq      uint64                      `json:"seq"`
	Counters map[string]int64            `json:"counters,omitempty"`
	Gauges   map[string]float64          `json:"gauges,omitempty"`
	Hists    map[string]obs.HistSnapshot `json:"hists,omitempty"`
	Stats    map[string]obs.StatSnapshot `json:"stats,omitempty"`
}

// Msg is one decoded telemetry frame: Kind selects which field is
// meaningful, mirroring durable.Record's tagged-record style.
type Msg struct {
	Kind MsgKind

	Hello     Hello              // KindHello
	Snapshot  obs.Snapshot       // KindSnapshot
	Help      map[string]string  // KindSnapshot: metric help text for exposition
	Delta     Delta              // KindDelta
	Spans     []obs.SpanRec      // KindSpans
	SLO       slo.EngineState    // KindSLO
	Headroom  core.Headroom      // KindHeadroom
	Ledger    *ledger.Snapshot   // KindLedger
	Heartbeat Heartbeat          // KindHeartbeat
	Exemplars []latency.Exemplar // KindExemplars
}

// Decoder hardening limits, mirroring internal/durable: corrupt counts
// must error, never panic or stampede allocations.
const (
	maxFramePayload = 16 << 20
	maxNames        = 1 << 16
	maxBuckets      = 1 << 16
	maxSpans        = 1 << 16
	maxAttrs        = 256
	maxObjectives   = 1 << 8
	maxLedgerJSON   = 8 << 20
	maxExemplars    = 1 << 10
)

func appendHistSnapshot(b []byte, h obs.HistSnapshot) []byte {
	b = frame.AppendF64(b, h.Lo)
	b = frame.AppendF64(b, h.Hi)
	b = frame.AppendU32(b, uint32(len(h.Buckets)))
	for _, c := range h.Buckets {
		b = frame.AppendI64(b, c)
	}
	b = frame.AppendI64(b, h.Under)
	b = frame.AppendI64(b, h.Over)
	b = frame.AppendI64(b, h.Count)
	b = frame.AppendF64(b, h.Sum)
	b = frame.AppendU32(b, uint32(len(h.Bounds)))
	for _, e := range h.Bounds {
		b = frame.AppendF64(b, e)
	}
	return b
}

func appendStatSnapshot(b []byte, s obs.StatSnapshot) []byte {
	b = frame.AppendI64(b, int64(s.N))
	b = frame.AppendF64(b, s.Mean)
	b = frame.AppendF64(b, s.Std)
	b = frame.AppendF64(b, s.CI95)
	return b
}

func appendSpan(b []byte, s obs.SpanRec) []byte {
	b = frame.AppendU64(b, uint64(s.Trace))
	b = frame.AppendU64(b, uint64(s.ID))
	b = frame.AppendU64(b, uint64(s.Parent))
	b = frame.AppendStr(b, s.Name)
	b = frame.AppendStr(b, s.Stage)
	b = frame.AppendI64(b, int64(s.Job))
	b = frame.AppendF64(b, s.Start)
	b = frame.AppendF64(b, s.End)
	b = frame.AppendStr(b, s.Err)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = frame.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = frame.AppendStr(b, k)
		b = frame.AppendF64(b, s.Attrs[k])
	}
	return b
}

func appendHeadroom(b []byte, h core.Headroom) []byte {
	b = frame.AppendF64(b, h.From)
	b = frame.AppendF64(b, h.Horizon)
	b = frame.AppendU32(b, uint32(h.MaxProcs))
	b = frame.AppendF64(b, h.MaxDuration)
	b = frame.AppendF64(b, h.MaxArea)
	b = frame.AppendF64(b, h.BestHole.Start)
	b = frame.AppendF64(b, h.BestHole.End)
	b = frame.AppendU32(b, uint32(h.BestHole.Procs))
	return b
}

// sortedNames returns a map's keys sorted — the canonical encode order.
func sortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendSnapshot(b []byte, s obs.Snapshot) []byte {
	b = frame.AppendU32(b, uint32(len(s.Counters)))
	for _, name := range sortedNames(s.Counters) {
		b = frame.AppendStr(b, name)
		b = frame.AppendI64(b, s.Counters[name])
	}
	b = frame.AppendU32(b, uint32(len(s.Gauges)))
	for _, name := range sortedNames(s.Gauges) {
		b = frame.AppendStr(b, name)
		b = frame.AppendF64(b, s.Gauges[name])
	}
	b = frame.AppendU32(b, uint32(len(s.Histograms)))
	for _, name := range sortedNames(s.Histograms) {
		b = frame.AppendStr(b, name)
		b = appendHistSnapshot(b, s.Histograms[name])
	}
	b = frame.AppendU32(b, uint32(len(s.Stats)))
	for _, name := range sortedNames(s.Stats) {
		b = frame.AppendStr(b, name)
		b = appendStatSnapshot(b, s.Stats[name])
	}
	return b
}

func appendSLOState(b []byte, s slo.EngineState) []byte {
	b = frame.AppendI64(b, s.Admitted)
	b = frame.AppendI64(b, s.Rejected)
	b = frame.AppendI64(b, s.Completed)
	b = frame.AppendI64(b, s.InFlight)
	b = frame.AppendI64(b, s.DeadlineMisses)
	b = frame.AppendI64(b, s.OverAdmissions)
	b = frame.AppendF64(b, s.BurnThreshold)
	b = frame.AppendU32(b, uint32(len(s.Objectives)))
	for _, o := range s.Objectives {
		b = frame.AppendStr(b, o.Name)
		b = frame.AppendF64(b, o.Budget)
		b = frame.AppendBool(b, o.Active)
		b = frame.AppendI64(b, o.ShortBad)
		b = frame.AppendI64(b, o.ShortTotal)
		b = frame.AppendI64(b, o.LongBad)
		b = frame.AppendI64(b, o.LongTotal)
	}
	return b
}

func appendExemplar(b []byte, e latency.Exemplar) []byte {
	b = frame.AppendU64(b, e.Trace)
	b = frame.AppendI64(b, e.Job)
	b = frame.AppendU32(b, uint32(e.Shard))
	b = frame.AppendI64(b, e.Total)
	b = frame.AppendU32(b, uint32(len(e.Durs)))
	for _, d := range e.Durs {
		b = frame.AppendI64(b, d)
	}
	return frame.AppendF64(b, e.At)
}

// EncodeMsg serializes one message payload (no framing).
func EncodeMsg(m *Msg) ([]byte, error) {
	b := make([]byte, 0, 256)
	b = append(b, byte(m.Kind))
	switch m.Kind {
	case KindHello:
		b = frame.AppendU32(b, m.Hello.Version)
		b = frame.AppendStr(b, m.Hello.Node)
		b = frame.AppendU64(b, m.Hello.Session)
		b = frame.AppendF64(b, m.Hello.Now)
		b = frame.AppendF64(b, m.Hello.Interval)
	case KindSnapshot:
		b = appendSnapshot(b, m.Snapshot)
		b = frame.AppendU32(b, uint32(len(m.Help)))
		for _, name := range sortedNames(m.Help) {
			b = frame.AppendStr(b, name)
			b = frame.AppendStr(b, m.Help[name])
		}
	case KindDelta:
		b = frame.AppendU64(b, m.Delta.Seq)
		b = frame.AppendU32(b, uint32(len(m.Delta.Counters)))
		for _, name := range sortedNames(m.Delta.Counters) {
			b = frame.AppendStr(b, name)
			b = frame.AppendI64(b, m.Delta.Counters[name])
		}
		b = frame.AppendU32(b, uint32(len(m.Delta.Gauges)))
		for _, name := range sortedNames(m.Delta.Gauges) {
			b = frame.AppendStr(b, name)
			b = frame.AppendF64(b, m.Delta.Gauges[name])
		}
		b = frame.AppendU32(b, uint32(len(m.Delta.Hists)))
		for _, name := range sortedNames(m.Delta.Hists) {
			b = frame.AppendStr(b, name)
			b = appendHistSnapshot(b, m.Delta.Hists[name])
		}
		b = frame.AppendU32(b, uint32(len(m.Delta.Stats)))
		for _, name := range sortedNames(m.Delta.Stats) {
			b = frame.AppendStr(b, name)
			b = appendStatSnapshot(b, m.Delta.Stats[name])
		}
	case KindSpans:
		b = frame.AppendU32(b, uint32(len(m.Spans)))
		for _, s := range m.Spans {
			b = appendSpan(b, s)
		}
	case KindSLO:
		b = appendSLOState(b, m.SLO)
	case KindHeadroom:
		b = appendHeadroom(b, m.Headroom)
	case KindLedger:
		if m.Ledger == nil {
			return nil, fmt.Errorf("telemetry: ledger frame without a snapshot")
		}
		js, err := json.Marshal(m.Ledger)
		if err != nil {
			return nil, fmt.Errorf("telemetry: encode ledger: %w", err)
		}
		if len(js) > maxLedgerJSON {
			return nil, fmt.Errorf("telemetry: ledger JSON %d bytes exceeds limit %d", len(js), maxLedgerJSON)
		}
		b = frame.AppendU32(b, uint32(len(js)))
		b = append(b, js...)
	case KindExemplars:
		b = frame.AppendU32(b, uint32(len(m.Exemplars)))
		for _, e := range m.Exemplars {
			b = appendExemplar(b, e)
		}
	case KindHeartbeat:
		b = frame.AppendF64(b, m.Heartbeat.Now)
		b = frame.AppendU64(b, m.Heartbeat.Seq)
		b = frame.AppendI64(b, m.Heartbeat.DroppedFrames)
		b = frame.AppendI64(b, m.Heartbeat.DroppedSpans)
		b = frame.AppendI64(b, m.Heartbeat.SpanTotal)
	default:
		return nil, fmt.Errorf("telemetry: unknown message kind %d", uint8(m.Kind))
	}
	return b, nil
}

func decodeHistSnapshot(c *frame.Cursor) obs.HistSnapshot {
	var h obs.HistSnapshot
	h.Lo = c.F64()
	h.Hi = c.F64()
	n := c.Count(maxBuckets, 8, "bucket")
	if n > 0 {
		h.Buckets = make([]int64, 0, n)
		for i := 0; i < n && c.Err() == nil; i++ {
			h.Buckets = append(h.Buckets, c.I64())
		}
	}
	h.Under = c.I64()
	h.Over = c.I64()
	h.Count = c.I64()
	h.Sum = c.F64()
	nb := c.Count(maxBuckets, 8, "bound")
	if nb > 0 {
		if nb != n {
			c.Fail("histogram carries %d bounds for %d buckets", nb, n)
			return h
		}
		h.Bounds = make([]float64, 0, nb)
		for i := 0; i < nb && c.Err() == nil; i++ {
			h.Bounds = append(h.Bounds, c.F64())
		}
	}
	return h
}

func decodeStatSnapshot(c *frame.Cursor) obs.StatSnapshot {
	var s obs.StatSnapshot
	s.N = int(c.I64())
	s.Mean = c.F64()
	s.Std = c.F64()
	s.CI95 = c.F64()
	return s
}

// nameSeq enforces the canonical strictly-increasing key order, so every
// cleanly decoded map re-encodes to the exact same bytes.
type nameSeq struct {
	prev string
	seen bool
}

func (ns *nameSeq) check(c *frame.Cursor, name string) {
	if ns.seen && name <= ns.prev {
		c.Fail("non-canonical key order (%q after %q)", name, ns.prev)
	}
	ns.prev, ns.seen = name, true
}

func decodeSpan(c *frame.Cursor) obs.SpanRec {
	var s obs.SpanRec
	s.Trace = obs.TraceID(c.U64())
	s.ID = obs.SpanID(c.U64())
	s.Parent = obs.SpanID(c.U64())
	s.Name = c.Str()
	s.Stage = c.Str()
	s.Job = int(c.I64())
	s.Start = c.F64()
	s.End = c.F64()
	s.Err = c.Str()
	n := c.Count(maxAttrs, 12, "attr")
	if n > 0 {
		s.Attrs = make(map[string]float64, n)
		var ns nameSeq
		for i := 0; i < n && c.Err() == nil; i++ {
			k := c.Str()
			ns.check(c, k)
			s.Attrs[k] = c.F64()
		}
	}
	return s
}

func decodeHeadroom(c *frame.Cursor) core.Headroom {
	var h core.Headroom
	h.From = c.F64()
	h.Horizon = c.F64()
	h.MaxProcs = int(int32(c.U32()))
	h.MaxDuration = c.F64()
	h.MaxArea = c.F64()
	h.BestHole.Start = c.F64()
	h.BestHole.End = c.F64()
	h.BestHole.Procs = int(int32(c.U32()))
	return h
}

func decodeSnapshot(c *frame.Cursor) obs.Snapshot {
	var s obs.Snapshot
	if n := c.Count(maxNames, 12, "counter"); n > 0 || c.Err() == nil {
		s.Counters = make(map[string]int64, n)
		var ns nameSeq
		for i := 0; i < n && c.Err() == nil; i++ {
			k := c.Str()
			ns.check(c, k)
			s.Counters[k] = c.I64()
		}
	}
	if n := c.Count(maxNames, 12, "gauge"); n > 0 || c.Err() == nil {
		s.Gauges = make(map[string]float64, n)
		var ns nameSeq
		for i := 0; i < n && c.Err() == nil; i++ {
			k := c.Str()
			ns.check(c, k)
			s.Gauges[k] = c.F64()
		}
	}
	if n := c.Count(maxNames, 24, "histogram"); n > 0 || c.Err() == nil {
		s.Histograms = make(map[string]obs.HistSnapshot, n)
		var ns nameSeq
		for i := 0; i < n && c.Err() == nil; i++ {
			k := c.Str()
			ns.check(c, k)
			s.Histograms[k] = decodeHistSnapshot(c)
		}
	}
	if n := c.Count(maxNames, 36, "stat"); n > 0 || c.Err() == nil {
		s.Stats = make(map[string]obs.StatSnapshot, n)
		var ns nameSeq
		for i := 0; i < n && c.Err() == nil; i++ {
			k := c.Str()
			ns.check(c, k)
			s.Stats[k] = decodeStatSnapshot(c)
		}
	}
	return s
}

func decodeSloState(c *frame.Cursor) slo.EngineState {
	var s slo.EngineState
	s.Admitted = c.I64()
	s.Rejected = c.I64()
	s.Completed = c.I64()
	s.InFlight = c.I64()
	s.DeadlineMisses = c.I64()
	s.OverAdmissions = c.I64()
	s.BurnThreshold = c.F64()
	n := c.Count(maxObjectives, 45, "objective")
	if n > 0 {
		s.Objectives = make([]slo.ObjectiveState, 0, n)
		for i := 0; i < n && c.Err() == nil; i++ {
			var o slo.ObjectiveState
			o.Name = c.Str()
			o.Budget = c.F64()
			o.Active = c.Bool()
			o.ShortBad = c.I64()
			o.ShortTotal = c.I64()
			o.LongBad = c.I64()
			o.LongTotal = c.I64()
			s.Objectives = append(s.Objectives, o)
		}
	}
	return s
}

// exemplar decodes one tail exemplar.  The phase-waterfall length is
// carried on the wire and must match this build's phase count exactly —
// a node speaking a different phase model cannot be merged meaningfully.
func decodeExemplar(c *frame.Cursor) latency.Exemplar {
	var e latency.Exemplar
	e.Trace = c.U64()
	e.Job = c.I64()
	e.Shard = int32(c.U32())
	e.Total = c.I64()
	nd := c.Count(64, 8, "phase duration")
	if c.Err() == nil && nd != latency.NumPhases {
		c.Fail("exemplar carries %d phase durations, want %d", nd, latency.NumPhases)
		return e
	}
	for i := 0; i < nd && c.Err() == nil; i++ {
		e.Durs[i] = c.I64()
	}
	e.At = c.F64()
	return e
}

// DecodeMsg parses one message payload.  Truncated, oversized,
// non-canonical or trailing-garbage payloads return an error; no input
// may panic (the fuzz target pins this), and decode∘encode is the
// identity on success.
func DecodeMsg(payload []byte) (*Msg, error) {
	cur := frame.NewCursor("telemetry", payload)
	c := &cur
	m := &Msg{Kind: MsgKind(c.U8())}
	switch m.Kind {
	case KindHello:
		m.Hello.Version = c.U32()
		m.Hello.Node = c.Str()
		m.Hello.Session = c.U64()
		m.Hello.Now = c.F64()
		m.Hello.Interval = c.F64()
	case KindSnapshot:
		m.Snapshot = decodeSnapshot(c)
		if n := c.Count(maxNames, 8, "help"); n > 0 || c.Err() == nil {
			m.Help = make(map[string]string, n)
			var ns nameSeq
			for i := 0; i < n && c.Err() == nil; i++ {
				k := c.Str()
				ns.check(c, k)
				m.Help[k] = c.Str()
			}
		}
	case KindDelta:
		m.Delta.Seq = c.U64()
		if n := c.Count(maxNames, 12, "counter"); n > 0 {
			m.Delta.Counters = make(map[string]int64, n)
			var ns nameSeq
			for i := 0; i < n && c.Err() == nil; i++ {
				k := c.Str()
				ns.check(c, k)
				m.Delta.Counters[k] = c.I64()
			}
		}
		if n := c.Count(maxNames, 12, "gauge"); n > 0 {
			m.Delta.Gauges = make(map[string]float64, n)
			var ns nameSeq
			for i := 0; i < n && c.Err() == nil; i++ {
				k := c.Str()
				ns.check(c, k)
				m.Delta.Gauges[k] = c.F64()
			}
		}
		if n := c.Count(maxNames, 24, "histogram"); n > 0 {
			m.Delta.Hists = make(map[string]obs.HistSnapshot, n)
			var ns nameSeq
			for i := 0; i < n && c.Err() == nil; i++ {
				k := c.Str()
				ns.check(c, k)
				m.Delta.Hists[k] = decodeHistSnapshot(c)
			}
		}
		if n := c.Count(maxNames, 36, "stat"); n > 0 {
			m.Delta.Stats = make(map[string]obs.StatSnapshot, n)
			var ns nameSeq
			for i := 0; i < n && c.Err() == nil; i++ {
				k := c.Str()
				ns.check(c, k)
				m.Delta.Stats[k] = decodeStatSnapshot(c)
			}
		}
	case KindSpans:
		n := c.Count(maxSpans, 60, "span")
		m.Spans = make([]obs.SpanRec, 0, n)
		for i := 0; i < n && c.Err() == nil; i++ {
			m.Spans = append(m.Spans, decodeSpan(c))
		}
	case KindSLO:
		m.SLO = decodeSloState(c)
	case KindHeadroom:
		m.Headroom = decodeHeadroom(c)
	case KindLedger:
		n := c.U32()
		if n > maxLedgerJSON {
			return nil, fmt.Errorf("telemetry: ledger JSON %d bytes exceeds limit %d", n, maxLedgerJSON)
		}
		js := c.Take(int(n))
		if c.Err() == nil {
			var ls ledger.Snapshot
			if err := json.Unmarshal(js, &ls); err != nil {
				return nil, fmt.Errorf("telemetry: decode ledger: %w", err)
			}
			// Canonical-form check: the payload must be exactly what this
			// encoder would emit, so decode∘encode stays the identity.
			canon, err := json.Marshal(&ls)
			if err != nil {
				return nil, fmt.Errorf("telemetry: re-encode ledger: %w", err)
			}
			if !bytes.Equal(canon, js) {
				return nil, fmt.Errorf("telemetry: non-canonical ledger JSON")
			}
			m.Ledger = &ls
		}
	case KindExemplars:
		n := c.Count(maxExemplars, 44, "exemplar")
		m.Exemplars = make([]latency.Exemplar, 0, n)
		for i := 0; i < n && c.Err() == nil; i++ {
			m.Exemplars = append(m.Exemplars, decodeExemplar(c))
		}
	case KindHeartbeat:
		m.Heartbeat.Now = c.F64()
		m.Heartbeat.Seq = c.U64()
		m.Heartbeat.DroppedFrames = c.I64()
		m.Heartbeat.DroppedSpans = c.I64()
		m.Heartbeat.SpanTotal = c.I64()
	default:
		return nil, fmt.Errorf("telemetry: unknown message kind %d", uint8(m.Kind))
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteMsg encodes and writes one framed message.
func WriteMsg(w io.Writer, m *Msg) error {
	payload, err := EncodeMsg(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame.Append(nil, payload))
	return err
}

// NewReader returns the frame reader ReadMsg reads a telemetry stream
// through.
func NewReader(r io.Reader) *frame.Reader {
	return frame.NewReader(r, "telemetry", maxFramePayload)
}

// ReadMsg reads one framed message.  io.EOF means a clean end of stream;
// any other error (torn frame, checksum mismatch, limit breach,
// non-canonical payload) means the stream is unusable and the subscriber
// must resync.
func ReadMsg(r *frame.Reader) (*Msg, error) {
	payload, err := r.Next()
	if err != nil {
		return nil, err
	}
	return DecodeMsg(payload)
}
