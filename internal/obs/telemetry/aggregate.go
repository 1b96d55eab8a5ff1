package telemetry

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// AggregatorConfig tunes one aggregator.
type AggregatorConfig struct {
	// Nodes are the exporter addresses to subscribe to.
	Nodes []string
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff (default 250ms / 5s).
	RetryMin time.Duration
	RetryMax time.Duration
	// SpanRing bounds per-node span retention (default 16384).
	SpanRing int
	// AlertEvery is the merged burn-rate re-evaluation cadence (default
	// 1s); AlertLog bounds the retained alert transitions (default 256).
	AlertEvery time.Duration
	AlertLog   int
	// Clock is the aggregator's local timestamp source, used for stream
	// lag and alert-event times (wall seconds since creation when nil).
	Clock func() float64
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.SpanRing < 1 {
		c.SpanRing = 16384
	}
	if c.AlertEvery <= 0 {
		c.AlertEvery = time.Second
	}
	if c.AlertLog < 1 {
		c.AlertLog = 256
	}
	return c
}

// nodeState is one subscribed node's accumulated view.  A snapshot frame
// REPLACES the accumulated registry state (that is the resync contract:
// after a node or stream restart the new session's snapshot supersedes
// everything the old session delivered), and deltas fold in on top.
type nodeState struct {
	addr string

	mu        sync.Mutex
	name      string
	session   uint64
	connected bool
	lastErr   string

	haveSnap bool
	snap     obs.Snapshot
	help     map[string]string
	deltaSeq uint64

	haveSLO      bool
	slo          slo.EngineState
	haveHeadroom bool
	headroom     core.Headroom
	ledger       *ledger.Snapshot
	exemplars    []latency.Exemplar
	spans        *obs.Ring[obs.SpanRec]

	frames      int64
	resyncs     int64
	seqGaps     int64
	lastFrameAt float64
	heartbeat   Heartbeat
	hasHB       bool
}

// NodeStatus is one node's liveness and stream accounting (the /nodes
// surface).
type NodeStatus struct {
	Addr      string `json:"addr"`
	Node      string `json:"node,omitempty"`
	Connected bool   `json:"connected"`
	Session   uint64 `json:"session,omitempty"`
	LastError string `json:"last_error,omitempty"`

	Frames   int64  `json:"frames"`
	DeltaSeq uint64 `json:"delta_seq"`
	Resyncs  int64  `json:"resyncs"`
	SeqGaps  int64  `json:"seq_gaps"`
	// LagSeconds is the aggregator-clock age of the last frame.
	LagSeconds float64 `json:"lag_seconds"`

	// Exporter-side drop accounting, from the last heartbeat.
	ExporterDroppedFrames int64 `json:"exporter_dropped_frames"`
	ExporterDroppedSpans  int64 `json:"exporter_dropped_spans"`
	ExporterSpanTotal     int64 `json:"exporter_span_total"`
	SpansHeld             int   `json:"spans_held"`
}

// AlertEvent is one edge of the merged burn-rate alert signal.
type AlertEvent struct {
	At        float64 `json:"at"`
	Objective string  `json:"objective"`
	Short     float64 `json:"short_burn"`
	Long      float64 `json:"long_burn"`
	On        bool    `json:"on"`
}

// Aggregator subscribes to N telemetry exporters, accumulates each
// node's state (snapshot-then-delta), and serves merged cluster views
// built from the same Merge primitives the in-process surfaces use.
type Aggregator struct {
	cfg   AggregatorConfig
	start time.Time
	nodes []*nodeState

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	alertOn  map[string]bool
	alertLog []AlertEvent
	injected map[string][]obs.SpanRec

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewAggregator builds an aggregator over the configured node addresses.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:      cfg,
		start:    time.Now(),
		conns:    make(map[net.Conn]struct{}),
		alertOn:  make(map[string]bool),
		injected: make(map[string][]obs.SpanRec),
		quit:     make(chan struct{}),
	}
	for _, addr := range cfg.Nodes {
		a.nodes = append(a.nodes, &nodeState{
			addr:  addr,
			spans: obs.NewRing[obs.SpanRec](cfg.SpanRing),
		})
	}
	return a
}

func (a *Aggregator) now() float64 {
	if a.cfg.Clock != nil {
		return a.cfg.Clock()
	}
	return time.Since(a.start).Seconds()
}

// Start launches one subscription loop per node plus the merged
// burn-rate alert evaluator.
func (a *Aggregator) Start() {
	for _, ns := range a.nodes {
		a.wg.Add(1)
		go a.runNode(ns)
	}
	a.wg.Add(1)
	go a.alertLoop()
}

// Close stops all subscriptions.
func (a *Aggregator) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	close(a.quit)
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

func (a *Aggregator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.quit:
		return false
	case <-t.C:
		return true
	}
}

func (a *Aggregator) runNode(ns *nodeState) {
	defer a.wg.Done()
	backoff := a.cfg.RetryMin
	for {
		select {
		case <-a.quit:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", ns.addr, a.cfg.DialTimeout)
		if err != nil {
			ns.setError(err)
			if !a.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, a.cfg.RetryMax)
			continue
		}
		backoff = a.cfg.RetryMin
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()

		err = a.consume(ns, conn)

		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		conn.Close()
		ns.setError(err)
		if !a.sleep(a.cfg.RetryMin) {
			return
		}
	}
}

func (ns *nodeState) setError(err error) {
	ns.mu.Lock()
	ns.connected = false
	if err != nil {
		ns.lastErr = err.Error()
	}
	ns.mu.Unlock()
}

// consume drains one session's frames into the node state.  Any decode
// or protocol error tears the session down; the reconnect's fresh
// snapshot makes the state whole again (snapshot-then-delta resync).
func (a *Aggregator) consume(ns *nodeState, conn net.Conn) error {
	fr := NewReader(conn)
	for {
		msg, err := ReadMsg(fr)
		if err != nil {
			return err
		}
		now := a.now()
		ns.mu.Lock()
		ns.frames++
		ns.lastFrameAt = now
		switch msg.Kind {
		case KindHello:
			if msg.Hello.Version != Version {
				ns.mu.Unlock()
				return fmt.Errorf("telemetry: node %s speaks version %d, want %d", ns.addr, msg.Hello.Version, Version)
			}
			ns.name = msg.Hello.Node
			ns.session = msg.Hello.Session
			ns.connected = true
			ns.lastErr = ""
		case KindSnapshot:
			if ns.haveSnap {
				ns.resyncs++
			}
			ns.haveSnap = true
			ns.snap = msg.Snapshot
			ns.help = msg.Help
			ns.deltaSeq = 0
		case KindDelta:
			if !ns.haveSnap || msg.Delta.Seq != ns.deltaSeq+1 {
				ns.seqGaps++
				have := ns.deltaSeq
				ns.mu.Unlock()
				return fmt.Errorf("telemetry: node %s delta seq %d after %d, forcing resync", ns.addr, msg.Delta.Seq, have)
			}
			if err := ApplyDelta(&ns.snap, msg.Delta); err != nil {
				ns.mu.Unlock()
				return err
			}
			ns.deltaSeq = msg.Delta.Seq
		case KindSpans:
			for _, s := range msg.Spans {
				ns.spans.Push(s)
			}
		case KindSLO:
			ns.slo = msg.SLO
			ns.haveSLO = true
		case KindHeadroom:
			ns.headroom = msg.Headroom
			ns.haveHeadroom = true
		case KindLedger:
			ns.ledger = msg.Ledger
		case KindExemplars:
			ns.exemplars = msg.Exemplars
		case KindHeartbeat:
			ns.heartbeat = msg.Heartbeat
			ns.hasHB = true
		}
		ns.mu.Unlock()
	}
}

// Nodes returns per-node liveness, lag, and drop accounting.
func (a *Aggregator) Nodes() []NodeStatus {
	now := a.now()
	out := make([]NodeStatus, 0, len(a.nodes))
	for _, ns := range a.nodes {
		ns.mu.Lock()
		st := NodeStatus{
			Addr:      ns.addr,
			Node:      ns.name,
			Connected: ns.connected,
			Session:   ns.session,
			LastError: ns.lastErr,
			Frames:    ns.frames,
			DeltaSeq:  ns.deltaSeq,
			Resyncs:   ns.resyncs,
			SeqGaps:   ns.seqGaps,
			SpansHeld: ns.spans.Len(),
		}
		if ns.frames > 0 {
			st.LagSeconds = now - ns.lastFrameAt
		}
		if ns.hasHB {
			st.ExporterDroppedFrames = ns.heartbeat.DroppedFrames
			st.ExporterDroppedSpans = ns.heartbeat.DroppedSpans
			st.ExporterSpanTotal = ns.heartbeat.SpanTotal
		}
		ns.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// nodeLabel names a node for merged views: the Hello identity when
// known, the dial address until then.
func (ns *nodeState) nodeLabel() string {
	if ns.name != "" {
		return ns.name
	}
	return ns.addr
}

// NodeSnapshots returns each node's accumulated registry snapshot,
// keyed by node label (the Prometheus node-label scheme renders these as
// name{node="label"} series).
func (a *Aggregator) NodeSnapshots() (map[string]obs.Snapshot, map[string]string) {
	snaps := make(map[string]obs.Snapshot, len(a.nodes))
	help := make(map[string]string)
	for _, ns := range a.nodes {
		ns.mu.Lock()
		if ns.haveSnap {
			snaps[ns.nodeLabel()] = ns.snap.Clone()
			for k, v := range ns.help {
				if help[k] == "" {
					help[k] = v
				}
			}
		}
		ns.mu.Unlock()
	}
	return snaps, help
}

// MergedRegistry folds every node's accumulated snapshot into one
// cluster snapshot with obs.Snapshot.Merge (counters and histogram
// buckets add across nodes).
func (a *Aggregator) MergedRegistry() (obs.Snapshot, error) {
	snaps, _ := a.NodeSnapshots()
	labels := make([]string, 0, len(snaps))
	for l := range snaps {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var merged obs.Snapshot
	for _, l := range labels {
		if err := merged.Merge(snaps[l]); err != nil {
			return merged, fmt.Errorf("telemetry: merging node %s: %w", l, err)
		}
	}
	return merged, nil
}

// MergedSLO folds every node's SLO state with slo.MergeStates; Burns()
// on the result re-runs multi-window burn-rate alerting over the merged
// window totals.
func (a *Aggregator) MergedSLO() slo.EngineState {
	var states []slo.EngineState
	for _, ns := range a.nodes {
		ns.mu.Lock()
		if ns.haveSLO {
			states = append(states, ns.slo)
		}
		ns.mu.Unlock()
	}
	return slo.MergeStates(states...)
}

// MergedHeadroom folds every node's frontier with core.Headroom.Merge.
func (a *Aggregator) MergedHeadroom() core.Headroom {
	var merged core.Headroom
	for _, ns := range a.nodes {
		ns.mu.Lock()
		if ns.haveHeadroom {
			merged = merged.Merge(ns.headroom)
		}
		ns.mu.Unlock()
	}
	return merged
}

// MergedLedger folds every node's utilization ledger with
// ledger.Snapshot.Merge (nil when no node has sent one yet).
func (a *Aggregator) MergedLedger() *ledger.Snapshot {
	var merged *ledger.Snapshot
	for _, ns := range a.nodes {
		ns.mu.Lock()
		merged = merged.Merge(ns.ledger)
		ns.mu.Unlock()
	}
	return merged
}

// MergedExemplars folds every node's tail exemplars into the k slowest
// cluster-wide (latency.MergeTopK), slowest first.  k <= 0 keeps all.
func (a *Aggregator) MergedExemplars(k int) []latency.Exemplar {
	var sets [][]latency.Exemplar
	for _, ns := range a.nodes {
		ns.mu.Lock()
		if len(ns.exemplars) > 0 {
			sets = append(sets, ns.exemplars)
		}
		ns.mu.Unlock()
	}
	return latency.MergeTopK(k, sets...)
}

// InjectSpans adds locally produced spans (e.g. milanmon's own qosnet
// client spans) under the given node label, so cross-process trees can
// stitch client-side arrival spans to server-side admission spans.
func (a *Aggregator) InjectSpans(node string, spans []obs.SpanRec) {
	a.mu.Lock()
	a.injected[node] = append(a.injected[node], spans...)
	a.mu.Unlock()
}

// Spans returns every retained span across all nodes (including
// injected ones), the flat input to span-tree stitching.
func (a *Aggregator) Spans() []obs.SpanRec {
	var out []obs.SpanRec
	for _, ns := range a.nodes {
		ns.mu.Lock()
		out = append(out, ns.spans.Items()...)
		ns.mu.Unlock()
	}
	a.mu.Lock()
	for _, spans := range a.injected {
		out = append(out, spans...)
	}
	a.mu.Unlock()
	return out
}

// SpanTrees stitches cross-process span trees over every retained span:
// trace and span IDs are cluster-unique (Tracer.SeedIDs), so a client
// span on one node parents a server span from another exactly as if
// they shared a process.
func (a *Aggregator) SpanTrees() map[obs.TraceID]*obs.SpanNode {
	return obs.BuildSpanTrees(a.Spans())
}

// alertLoop re-evaluates merged burn rates on a cadence and records
// edge-triggered alert transitions.
func (a *Aggregator) alertLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.AlertEvery)
	defer ticker.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-ticker.C:
		}
		burns := a.MergedSLO().Burns()
		now := a.now()
		a.mu.Lock()
		for _, b := range burns {
			if b.Alerting == a.alertOn[b.Objective] {
				continue
			}
			a.alertOn[b.Objective] = b.Alerting
			a.alertLog = append(a.alertLog, AlertEvent{
				At: now, Objective: b.Objective,
				Short: b.Short, Long: b.Long, On: b.Alerting,
			})
			if len(a.alertLog) > a.cfg.AlertLog {
				a.alertLog = a.alertLog[len(a.alertLog)-a.cfg.AlertLog:]
			}
		}
		a.mu.Unlock()
	}
}

// Alerts returns the retained merged-view alert transitions.
func (a *Aggregator) Alerts() []AlertEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AlertEvent(nil), a.alertLog...)
}
