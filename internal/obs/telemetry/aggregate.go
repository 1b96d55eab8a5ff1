// Package telemetry federates the observability plane across processes by
// pull.  An Aggregator scrapes the debug endpoint every node already
// serves (obs.Observer.Handler: /metrics, /slo, /latency, /ledger, /spans)
// on one cadence, folds what it read with the merges the in-process
// surfaces use, and serves the cluster view as JSON (Handler).
//
// Every scraped value is cumulative or current state, so merged counters
// equal the per-node sums by construction and a node that restarted is
// whole again at its next poll: nothing carries over from one poll to the
// next but the span cursor.  Spans are the one stream: the aggregator
// keeps a cursor on each node's completed-span count (obs.SpansTotalHeader)
// and the tracer epoch it belongs to (obs.SpansEpochHeader), asks for only
// the spans past it (/spans?since=&epoch=), takes a restarted node's whole
// ring, and counts the spans the node's ring overwrote between two polls
// as dropped.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

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

// AggregatorConfig tunes one aggregator.
type AggregatorConfig struct {
	// Nodes are the debug-endpoint addresses (host:port) to scrape.
	Nodes []string
	// Interval is the cadence of scrapes and of merged burn-rate alert
	// evaluation (default 1s).
	Interval time.Duration
}

// scrapeTimeout bounds one scrape request; spanRing bounds per-node span
// retention.
const (
	scrapeTimeout = 5 * time.Second
	spanRing      = 16384
)

// alertLog bounds the retained merged-view alert transitions.
const alertLog = 256

// nodeState is one node's view as of its last successful poll.  A failed
// poll keeps that view (its age shows as lag) and marks the node down.
type nodeState struct {
	addr string

	mu       sync.Mutex
	up       bool
	lastErr  string
	polls    int64
	lastPoll time.Time

	snap      obs.Snapshot // valid once polls > 0
	slo       *slo.EngineState
	ledger    *ledger.Snapshot
	exemplars []latency.Exemplar

	spans        *obs.Ring[obs.SpanRec]
	cursor       int64 // the node's completed-span count at the last poll; -1 before one
	epoch        int64 // the epoch that count belongs to (obs.SpansEpochHeader)
	spansDropped int64
}

// NodeStatus is one node's liveness and scrape accounting (the /nodes
// surface).
type NodeStatus struct {
	Addr      string `json:"addr"`
	Up        bool   `json:"up"`
	LastError string `json:"last_error,omitempty"`
	Polls     int64  `json:"polls"`
	// LagSeconds is the age of the last successful poll: how stale this
	// node's share of the merged view is.
	LagSeconds float64 `json:"lag_seconds"`
	// SpanTotal is the node's completed-span count at the last poll; SpansDropped
	// counts the spans its ring overwrote between two polls, which the
	// aggregator never saw.
	SpanTotal    int64 `json:"span_total"`
	SpansDropped int64 `json:"spans_dropped"`
	SpansHeld    int   `json:"spans_held"`
}

// AlertEvent is one edge of the merged burn-rate alert signal.
type AlertEvent struct {
	At        float64 `json:"at"`
	Objective string  `json:"objective"`
	Short     float64 `json:"short_burn"`
	Long      float64 `json:"long_burn"`
	On        bool    `json:"on"`
}

// Aggregator scrapes N nodes' debug endpoints and serves merged cluster
// views built from the same Merge primitives the in-process surfaces use.
type Aggregator struct {
	cfg    AggregatorConfig
	client *http.Client
	start  time.Time
	nodes  []*nodeState

	pollMu sync.Mutex // one round at a time: a node's view only moves forward

	mu       sync.Mutex
	alertOn  map[string]bool
	alertLog []AlertEvent
	injected map[string][]obs.SpanRec

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewAggregator builds an aggregator over the configured node addresses.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	a := &Aggregator{
		cfg:      cfg,
		client:   &http.Client{Timeout: scrapeTimeout},
		start:    time.Now(),
		alertOn:  make(map[string]bool),
		injected: make(map[string][]obs.SpanRec),
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	for _, addr := range cfg.Nodes {
		a.nodes = append(a.nodes, &nodeState{
			addr:   addr,
			spans:  obs.NewRing[obs.SpanRec](spanRing),
			cursor: -1,
		})
	}
	return a
}

// Start polls every node now and then once per Interval until Close.
func (a *Aggregator) Start() {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		for {
			a.pollOnce()
			select {
			case <-a.ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
}

// Close stops polling and abandons any scrape in flight.
func (a *Aggregator) Close() {
	a.cancel()
	a.wg.Wait()
}

// pollOnce scrapes every node concurrently, then re-evaluates the merged
// burn rates over what it read.
func (a *Aggregator) pollOnce() {
	a.pollMu.Lock()
	defer a.pollMu.Unlock()
	var wg sync.WaitGroup
	for _, ns := range a.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.poll(ns)
		}()
	}
	wg.Wait()
	a.evaluateAlerts()
}

// get GETs one debug surface and decodes its JSON body into v.  A node
// that does not serve the surface (404, or 503 before it has anything)
// is not an error: found is false and v is untouched.
func (a *Aggregator) get(addr, path string, v any) (hdr http.Header, found bool, err error) {
	req, err := http.NewRequestWithContext(a.ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusServiceUnavailable:
		return resp.Header, false, nil
	default:
		return nil, false, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, false, fmt.Errorf("GET %s: %w", path, err)
	}
	return resp.Header, true, nil
}

// poll scrapes one node and, only if every surface read cleanly, replaces
// its view with what it read.
func (a *Aggregator) poll(ns *nodeState) {
	var (
		snap   obs.Snapshot
		sloDoc struct {
			State *slo.EngineState `json:"state"`
		}
		latDoc struct {
			Exemplars []latency.Exemplar `json:"exemplars"`
		}
		led   ledger.Snapshot
		spans []obs.SpanRec
	)
	_, haveSnap, err := a.get(ns.addr, "/metrics", &snap)
	if err == nil && !haveSnap {
		err = fmt.Errorf("GET /metrics: not served")
	}
	var haveLed bool
	if err == nil {
		_, _, err = a.get(ns.addr, "/slo", &sloDoc)
	}
	if err == nil {
		_, _, err = a.get(ns.addr, "/latency", &latDoc)
	}
	if err == nil {
		_, haveLed, err = a.get(ns.addr, "/ledger", &led)
	}
	var total, epoch int64
	if err == nil {
		// Only the spans past the cursor come back, unless the node's
		// epoch changed (polls are serialized by pollMu, so the cursor
		// and epoch are read unlocked).
		var hdr http.Header
		q := fmt.Sprintf("/spans?since=%d&epoch=%d", max(ns.cursor, 0), ns.epoch)
		if hdr, _, err = a.get(ns.addr, q, &spans); err == nil {
			total, err = strconv.ParseInt(hdr.Get(obs.SpansTotalHeader), 10, 64)
		}
		if err == nil {
			epoch, err = strconv.ParseInt(hdr.Get(obs.SpansEpochHeader), 10, 64)
		}
	}

	ns.mu.Lock()
	defer ns.mu.Unlock()
	if err != nil {
		ns.up, ns.lastErr = false, err.Error()
		return
	}
	ns.up, ns.lastErr = true, ""
	ns.polls++
	ns.lastPoll = time.Now()
	ns.snap = snap
	ns.slo = sloDoc.State
	ns.exemplars = latDoc.Exemplars
	ns.ledger = nil
	if haveLed {
		ns.ledger = &led
	}
	oldest := total - int64(len(spans))
	if ns.cursor < 0 || epoch != ns.epoch {
		// First poll, or a restarted node whose count began again (at
		// whatever it has reached since): what its ring holds is all
		// there is to take.
		ns.cursor, ns.epoch = oldest, epoch
	}
	if ns.cursor < oldest {
		ns.spansDropped += oldest - ns.cursor
		ns.cursor = oldest
	}
	for _, s := range spans[ns.cursor-oldest:] {
		ns.spans.Push(s)
	}
	ns.cursor = total
}

// Nodes returns per-node liveness, lag and span accounting.
func (a *Aggregator) Nodes() []NodeStatus {
	now := time.Now()
	out := make([]NodeStatus, 0, len(a.nodes))
	for _, ns := range a.nodes {
		ns.mu.Lock()
		st := NodeStatus{
			Addr:         ns.addr,
			Up:           ns.up,
			LastError:    ns.lastErr,
			Polls:        ns.polls,
			SpanTotal:    max(ns.cursor, 0),
			SpansDropped: ns.spansDropped,
			SpansHeld:    ns.spans.Len(),
		}
		if ns.polls > 0 {
			st.LagSeconds = now.Sub(ns.lastPoll).Seconds()
		}
		ns.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// NodeSnapshots returns each node's last scraped registry snapshot, keyed
// by its address (the key of the "nodes" object /metrics serves).
func (a *Aggregator) NodeSnapshots() map[string]obs.Snapshot {
	snaps := make(map[string]obs.Snapshot, len(a.nodes))
	for _, ns := range a.nodes {
		ns.mu.Lock()
		if ns.polls > 0 {
			snaps[ns.addr] = ns.snap.Clone()
		}
		ns.mu.Unlock()
	}
	return snaps
}

// MergedRegistry folds every node's snapshot into one cluster snapshot
// with obs.Snapshot.Merge: counters and histograms add across nodes, and
// gauges, which do not add, stay in NodeSnapshots.
func (a *Aggregator) MergedRegistry() (obs.Snapshot, error) {
	snaps := a.NodeSnapshots()
	var merged obs.Snapshot
	for _, l := range sortedKeys(snaps) {
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
		if ns.slo != nil {
			states = append(states, *ns.slo)
		}
		ns.mu.Unlock()
	}
	return slo.MergeStates(states...)
}

// mergedLedger folds every node's utilization ledger with
// ledger.Snapshot.Merge (nil when no node serves one).
func (a *Aggregator) mergedLedger() *ledger.Snapshot {
	var merged *ledger.Snapshot
	for _, ns := range a.nodes {
		ns.mu.Lock()
		merged = merged.Merge(ns.ledger)
		ns.mu.Unlock()
	}
	return merged
}

// mergedExemplars folds every node's tail exemplars into the k slowest
// cluster-wide (latency.MergeTopK), slowest first.  k <= 0 keeps all.
func (a *Aggregator) mergedExemplars(k int) []latency.Exemplar {
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

// spans returns every retained span across all nodes (including
// injected ones), the flat input to span-tree stitching.
func (a *Aggregator) spans() []obs.SpanRec {
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
	return obs.BuildSpanTrees(a.spans())
}

// evaluateAlerts re-runs merged burn rates and records edge-triggered
// alert transitions.
func (a *Aggregator) evaluateAlerts() {
	burns := a.MergedSLO().Burns()
	now := time.Since(a.start).Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range burns {
		if b.Alerting == a.alertOn[b.Objective] {
			continue
		}
		a.alertOn[b.Objective] = b.Alerting
		a.alertLog = append(a.alertLog, AlertEvent{
			At: now, Objective: b.Objective,
			Short: b.Short, Long: b.Long, On: b.Alerting,
		})
		if len(a.alertLog) > alertLog {
			a.alertLog = a.alertLog[len(a.alertLog)-alertLog:]
		}
	}
}

// alerts returns the retained merged-view alert transitions.
func (a *Aggregator) alerts() []AlertEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AlertEvent(nil), a.alertLog...)
}
