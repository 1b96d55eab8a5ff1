package telemetry

import (
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// NodeIDBase derives the span-ID seed for a node name: an fnv-1a hash
// of the name in the high 32 bits, leaving the low 32 for the process's
// own sequence (see obs.Tracer.SeedIDs).  Distinct node names yield
// disjoint ID ranges, so spans from different processes stitch into one
// tree without collisions.
func NodeIDBase(node string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(node))
	return uint64(h.Sum32()) << 32
}

// Exporter metric names (registered in the exported registry itself, so
// the cluster view includes the telemetry plane's own health).
const (
	MetricSubscribers   = "telemetry_subscribers"
	MetricFramesSent    = "telemetry_frames_sent"
	MetricDroppedFrames = "telemetry_dropped_frames"
	MetricDroppedSpans  = "telemetry_dropped_spans"
)

// Sources are the observability surfaces one exporter streams.  Every
// field is optional: a nil source simply never produces its frame kind.
type Sources struct {
	// Registry feeds the snapshot/delta stream.
	Registry *obs.Registry
	// Tracer feeds the completed-span stream (hooked via OnEnd; the hook
	// is a single atomic load when no subscriber is attached, honoring
	// the nil-hook zero-cost contract).
	Tracer *obs.Tracer
	// SLO feeds the objective-state stream.
	SLO *slo.Engine
	// Ledger returns the current utilization-ledger snapshot (e.g.
	// (*ledger.Ledger).Snapshot or (*ledger.Sharded).Merged).
	Ledger func() *ledger.Snapshot
	// Headroom returns the current headroom frontier (e.g. a closure over
	// fed.Arbitrator.Headroom).
	Headroom func() core.Headroom
	// Latency feeds the tail-exemplar stream (the node's latency plane;
	// its phase histograms already ride the registry stream — this adds
	// only the exemplar identities).  nil, like everywhere else, costs a
	// pointer comparison.
	Latency *latency.Plane
	// Clock is the exporter's timestamp source (wall seconds since
	// exporter creation when nil).
	Clock func() float64
}

// ExporterConfig tunes one exporter.
type ExporterConfig struct {
	// Node is the identity stamped on every session's Hello (required for
	// meaningful aggregation; defaults to "node").
	Node string
	// Interval is the delta cadence (default 1s).
	Interval time.Duration
	// QueueFrames bounds each subscriber's outbound frame queue (default
	// 256).  A full queue drops frames — counted, never blocking.
	QueueFrames int
	// SpanSpool bounds the shared completed-span spool (default 8192).  A
	// subscriber that falls behind the spool loses the overwritten spans
	// — counted per stream, never blocking the span producer.
	SpanSpool int
	// SpanBatch caps spans per frame (default 512).
	SpanBatch int
	// LedgerEvery sends the (comparatively large) ledger frame every Nth
	// tick (default 2).
	LedgerEvery int
	// WriteTimeout bounds one frame write to a subscriber (default 5s);
	// exceeding it drops the subscriber, never stalls the exporter.
	WriteTimeout time.Duration
}

func (c ExporterConfig) withDefaults() ExporterConfig {
	if c.Node == "" {
		c.Node = "node"
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.QueueFrames < 1 {
		c.QueueFrames = 256
	}
	if c.SpanSpool < 1 {
		c.SpanSpool = 8192
	}
	if c.SpanBatch < 1 {
		c.SpanBatch = 512
	}
	if c.LedgerEvery < 1 {
		c.LedgerEvery = 2
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	return c
}

// Exporter streams one process's observability state to any number of
// subscribers.  The admission hot path is never blocked: completed spans
// land in a bounded spool under a short mutex (guarded by an atomic
// subscriber count, so an attached-but-idle exporter costs one atomic
// load per span and nothing on untraced paths), and every subscriber
// owns a bounded frame queue drained by its own writer goroutine — a
// slow or dead subscriber drops frames (counted) and is eventually
// disconnected by the write timeout.
type Exporter struct {
	cfg ExporterConfig
	src Sources

	start    time.Time
	sessions atomic.Uint64
	subs     atomic.Int32

	spoolMu sync.Mutex
	spool   *obs.Ring[obs.SpanRec]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	quit   chan struct{}

	framesSent    atomic.Int64
	droppedFrames atomic.Int64
	droppedSpans  atomic.Int64

	subsGauge *obs.Gauge
	framesC   *obs.Counter
	dropFC    *obs.Counter
	dropSC    *obs.Counter
}

// NewExporter builds an exporter over the given sources.  It installs the
// span hook immediately; serving starts with Serve/ListenAndServe.
func NewExporter(cfg ExporterConfig, src Sources) *Exporter {
	e := &Exporter{
		cfg:   cfg.withDefaults(),
		src:   src,
		start: time.Now(),
		spool: obs.NewRing[obs.SpanRec](cfg.withDefaults().SpanSpool),
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	if reg := src.Registry; reg != nil {
		reg.Describe(MetricSubscribers, "Connected telemetry subscribers.")
		reg.Describe(MetricFramesSent, "Telemetry frames written to subscribers.")
		reg.Describe(MetricDroppedFrames, "Telemetry frames dropped on full subscriber queues.")
		reg.Describe(MetricDroppedSpans, "Completed spans lost to telemetry subscribers (spool overrun or queue drop).")
		e.subsGauge = reg.Gauge(MetricSubscribers)
		e.framesC = reg.Counter(MetricFramesSent)
		e.dropFC = reg.Counter(MetricDroppedFrames)
		e.dropSC = reg.Counter(MetricDroppedSpans)
	}
	if t := src.Tracer; t != nil {
		t.OnEnd(func(rec obs.SpanRec) {
			if e.subs.Load() == 0 {
				return // unattached: one atomic load, zero allocations
			}
			e.spoolMu.Lock()
			e.spool.Push(rec)
			e.spoolMu.Unlock()
		})
	}
	return e
}

func (e *Exporter) now() float64 {
	if e.src.Clock != nil {
		return e.src.Clock()
	}
	return time.Since(e.start).Seconds()
}

// Serve accepts subscribers on ln until Close.
func (e *Exporter) Serve(ln net.Listener) {
	e.mu.Lock()
	e.ln = ln
	e.mu.Unlock()
	e.wg.Add(1)
	go e.acceptLoop(ln)
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves.
func (e *Exporter) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	e.Serve(ln)
	return nil
}

// Addr returns the listen address ("" before Serve).
func (e *Exporter) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// ExporterStats is a point-in-time accounting of one exporter.
type ExporterStats struct {
	Subscribers   int   `json:"subscribers"`
	Sessions      int64 `json:"sessions"`
	FramesSent    int64 `json:"frames_sent"`
	DroppedFrames int64 `json:"dropped_frames"`
	DroppedSpans  int64 `json:"dropped_spans"`
}

// Stats returns the exporter's drop/session accounting.
func (e *Exporter) Stats() ExporterStats {
	return ExporterStats{
		Subscribers:   int(e.subs.Load()),
		Sessions:      int64(e.sessions.Load()),
		FramesSent:    e.framesSent.Load(),
		DroppedFrames: e.droppedFrames.Load(),
		DroppedSpans:  e.droppedSpans.Load(),
	}
}

// Close stops serving and disconnects every subscriber.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.quit)
	var err error
	if e.ln != nil {
		err = e.ln.Close()
	}
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

func (e *Exporter) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.serveSubscriber(conn)
	}
}

// subscriber is one stream's state, owned by its producer goroutine.
type subscriber struct {
	conn  net.Conn
	queue chan []byte
	dead  chan struct{} // closed by the writer on write failure

	lastSnap obs.Snapshot
	cursor   int64 // spool position (Ring.Total at last drain)
	deltaSeq uint64
	hbSeq    uint64

	droppedFrames int64
	droppedSpans  int64
}

// enqueue offers one encoded frame to the subscriber's bounded queue,
// reporting success.  It never blocks.
func (e *Exporter) enqueue(sub *subscriber, payload []byte) bool {
	framed := frame.Append(nil, payload)
	select {
	case <-sub.dead:
		return false
	default:
	}
	select {
	case sub.queue <- framed:
		return true
	default:
		sub.droppedFrames++
		e.droppedFrames.Add(1)
		if e.dropFC != nil {
			e.dropFC.Inc()
		}
		return false
	}
}

func (e *Exporter) encodeOrNil(m *Msg) []byte {
	payload, err := EncodeMsg(m)
	if err != nil {
		return nil
	}
	return payload
}

func (e *Exporter) serveSubscriber(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
		conn.Close()
	}()

	sub := &subscriber{
		conn:  conn,
		queue: make(chan []byte, e.cfg.QueueFrames),
		dead:  make(chan struct{}),
	}
	session := e.sessions.Add(1)
	n := e.subs.Add(1)
	if e.subsGauge != nil {
		e.subsGauge.Set(float64(n))
	}
	defer func() {
		n := e.subs.Add(-1)
		if e.subsGauge != nil {
			e.subsGauge.Set(float64(n))
		}
	}()

	// Writer: drains the bounded queue onto the connection.  A write
	// error or timeout marks the stream dead; the producer notices and
	// exits, and the deferred conn.Close unblocks everything else.
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for frame := range sub.queue {
			_ = conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
			if _, err := conn.Write(frame); err != nil {
				close(sub.dead)
				// Drain so the producer's sends never block.
				for range sub.queue {
				}
				return
			}
			e.framesSent.Add(1)
			if e.framesC != nil {
				e.framesC.Inc()
			}
		}
	}()
	defer close(sub.queue)

	// Session preamble: hello, then the full snapshot the deltas build
	// on.  The queue is empty here, so these cannot drop.
	e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindHello, Hello: Hello{
		Version: Version, Node: e.cfg.Node, Session: session,
		Now: e.now(), Interval: e.cfg.Interval.Seconds(),
	}}))
	if e.src.Registry != nil {
		sub.lastSnap = e.src.Registry.Snapshot()
		e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindSnapshot, Snapshot: sub.lastSnap, Help: e.src.Registry.Help()}))
	}
	e.spoolMu.Lock()
	sub.cursor = e.spool.Total()
	e.spoolMu.Unlock()
	e.publishState(sub, 0)

	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	for tick := 1; ; tick++ {
		select {
		case <-e.quit:
			return
		case <-sub.dead:
			return
		case <-ticker.C:
		}
		e.publishDelta(sub)
		e.publishSpans(sub)
		e.publishState(sub, tick)
		e.publishHeartbeat(sub)
	}
}

// publishDelta sends the registry delta since the last delivered one.  A
// dropped delta keeps lastSnap, so the change coalesces into the next
// delta instead of being lost — delivered deltas are contiguous and
// loss-free by construction.
func (e *Exporter) publishDelta(sub *subscriber) {
	reg := e.src.Registry
	if reg == nil {
		return
	}
	cur := reg.Snapshot()
	d := ComputeDelta(sub.lastSnap, cur)
	if len(d.Counters) == 0 && len(d.Gauges) == 0 && len(d.Hists) == 0 && len(d.Stats) == 0 {
		return
	}
	d.Seq = sub.deltaSeq + 1
	if e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindDelta, Delta: d})) {
		sub.deltaSeq++
		sub.lastSnap = cur
	}
}

// publishSpans drains the span spool since the subscriber's cursor,
// counting anything the spool overwrote as dropped.
func (e *Exporter) publishSpans(sub *subscriber) {
	if e.src.Tracer == nil {
		return
	}
	e.spoolMu.Lock()
	total := e.spool.Total()
	var items []obs.SpanRec
	if total > sub.cursor {
		items = e.spool.Items()
	}
	e.spoolMu.Unlock()
	if total == sub.cursor {
		return
	}
	oldest := total - int64(len(items))
	if sub.cursor < oldest {
		lost := oldest - sub.cursor
		sub.droppedSpans += lost
		e.droppedSpans.Add(lost)
		if e.dropSC != nil {
			e.dropSC.Add(lost)
		}
		sub.cursor = oldest
	}
	pending := items[sub.cursor-oldest:]
	sub.cursor = total
	for len(pending) > 0 {
		batch := pending
		if len(batch) > e.cfg.SpanBatch {
			batch = batch[:e.cfg.SpanBatch]
		}
		pending = pending[len(batch):]
		if !e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindSpans, Spans: batch})) {
			lost := int64(len(batch) + len(pending))
			sub.droppedSpans += lost
			e.droppedSpans.Add(lost)
			if e.dropSC != nil {
				e.dropSC.Add(lost)
			}
			return
		}
	}
}

// publishState sends the full-state frames (SLO, headroom, ledger);
// they carry absolute values, so a drop is harmless.
func (e *Exporter) publishState(sub *subscriber, tick int) {
	if e.src.SLO != nil {
		e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindSLO, SLO: e.src.SLO.ExportState()}))
	}
	if e.src.Headroom != nil {
		e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindHeadroom, Headroom: e.src.Headroom()}))
	}
	if e.src.Ledger != nil && tick%e.cfg.LedgerEvery == 0 {
		if ls := e.src.Ledger(); ls != nil {
			if payload := e.encodeOrNil(&Msg{Kind: KindLedger, Ledger: ls}); payload != nil {
				e.enqueue(sub, payload)
			}
		}
	}
	if e.src.Latency != nil {
		if ex := e.src.Latency.TopK(); len(ex) > 0 {
			e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindExemplars, Exemplars: ex}))
		}
	}
}

func (e *Exporter) publishHeartbeat(sub *subscriber) {
	sub.hbSeq++
	e.enqueue(sub, e.encodeOrNil(&Msg{Kind: KindHeartbeat, Heartbeat: Heartbeat{
		Now:           e.now(),
		Seq:           sub.hbSeq,
		DroppedFrames: sub.droppedFrames,
		DroppedSpans:  sub.droppedSpans,
		SpanTotal:     e.src.Tracer.Total(),
	}}))
}
