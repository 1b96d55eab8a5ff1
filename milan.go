// Package milan is a Go reproduction of "Exploiting Application Tunability
// for Efficient, Predictable Parallel Resource Management" (Chang,
// Karamcheti, Kedem — IPPS/SPDP 1999): predictable parallel resource
// management that exploits application tunability, the ability of an
// application to trade resource requirements over time while maintaining
// output quality.
//
// The package is a facade over the implementation packages:
//
//   - Scheduling core (tasks, chains, tunable jobs, the greedy
//     maximal-holes heuristic): internal/core, re-exported here.
//   - QoS agents and the QoS arbitrator (Section 3's architecture),
//     including a TCP negotiation protocol: internal/qos.
//   - OR task graphs and the tunability language (Section 4):
//     internal/taskgraph, internal/tunelang.
//   - The Calypso-like parallel runtime (Section 2): internal/calypso.
//   - The synthetic task system and figure harness (Section 5):
//     internal/workload, internal/experiments.
//   - The tunable junction-detection application (Sections 3.2/4.3):
//     internal/junction.
//
// Quick start:
//
//	arb, _ := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 16})
//	job := milan.Job{ID: 1, Chains: []milan.Chain{ ... }}
//	grant, err := milan.NewAgent(job).NegotiateWith(arb)
package milan

import (
	"io"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
	"milan/internal/qos"
	"milan/internal/taskgraph"
	"milan/internal/tunelang"
)

// Core scheduling model (Section 5 of the paper).
type (
	// Task is one stage of a job's chain; see core.Task.
	Task = core.Task
	// Chain is one execution path of a job.
	Chain = core.Chain
	// Job is a unit of admission; multiple chains make it tunable.
	Job = core.Job
	// Placement is the reservation granted to an admitted job.
	Placement = core.Placement
	// TaskPlacement is one task's slot within a placement.
	TaskPlacement = core.TaskPlacement
	// Options selects scheduler policies (placement engine, tie-breaking,
	// malleable allocation).
	Options = core.Options
	// Scheduler is the greedy admission-control scheduler.
	Scheduler = core.Scheduler
	// Stats carries scheduler counters.
	Stats = core.Stats
	// Hole is a maximal free rectangle in the processor-time plane.
	Hole = core.Hole
	// Profile is the committed-capacity-over-time view of the machine.
	Profile = core.Profile
	// Assignment binds a placed task to concrete processor IDs.
	Assignment = core.Assignment
)

// QoS architecture (Section 3).
type (
	// Agent is the application-side QoS agent.
	Agent = qos.Agent
	// Arbitrator is the system-wide QoS arbitrator.
	Arbitrator = qos.Arbitrator
	// ArbitratorConfig configures NewArbitrator.
	ArbitratorConfig = qos.ArbitratorConfig
	// Grant is a successful negotiation's result.
	Grant = qos.Grant
	// Negotiator is anything an agent can negotiate with.
	Negotiator = qos.Negotiator
	// Decision is the one typed event of an admission plane, handed to an
	// Observer (ArbitratorConfig.Observer, FedConfig.Observer) at the point
	// the mutation it describes is committed.
	Decision = qos.Decision
	// DecisionKind names what a Decision committed.
	DecisionKind = qos.DecisionKind
)

// The four mutations of an admission plane.  The monolithic arbitrators
// announce the first two; a federated plane announces all four, each under
// the deciding shard's lock.
const (
	DecisionAdmitted = qos.KindAdmitted
	DecisionRejected = qos.KindRejected
	DecisionClock    = qos.KindClock
	DecisionResize   = qos.KindResize
)

// Task graphs and the tunability language (Section 4).
type (
	// Graph is an application's OR task graph.
	Graph = taskgraph.Graph
	// TaskNode, Select, Loop, Seq and Branch build graphs programmatically.
	TaskNode = taskgraph.TaskNode
	// Select models the task_select construct.
	Select = taskgraph.Select
	// Loop models the task_loop construct.
	Loop = taskgraph.Loop
	// Seq runs nodes in order.
	Seq = taskgraph.Seq
	// Branch is one when-arm of a Select.
	Branch = taskgraph.Branch
	// Par is a parallel step group (task_par): execution paths become DAGs.
	Par = taskgraph.Par
	// GraphConfig is one admissible task configuration.
	GraphConfig = taskgraph.Config
	// Env binds control parameters during path enumeration.
	Env = taskgraph.Env
)

// Scheduler policy constants, re-exported for Options.
const (
	EngineProfile = core.EngineProfile
	EngineHoles   = core.EngineHoles

	TieBreakPaper     = core.TieBreakPaper
	TieBreakFirstFit  = core.TieBreakFirstFit
	TieBreakMinArea   = core.TieBreakMinArea
	TieBreakUtilFirst = core.TieBreakUtilFirst

	MalleableDescending     = core.MalleableDescending
	MalleableEarliestFinish = core.MalleableEarliestFinish

	PlaceGreedy    = core.PlaceGreedy
	PlaceBacktrack = core.PlaceBacktrack

	ProfileIndexOn  = core.ProfileIndexOn
	ProfileIndexOff = core.ProfileIndexOff
)

// IndexStats reports the segment-tree profile index's work counters (see
// Options.ProfileIndex and Scheduler.IndexStats).
type IndexStats = core.IndexStats

// ErrRejected is returned when admission control rejects a job.
var ErrRejected = qos.ErrRejected

// NewScheduler returns the greedy admission-control scheduler for `procs`
// processors starting at time origin (nil opts = the paper's policies).
func NewScheduler(procs int, origin float64, opts *Options) *Scheduler {
	return core.NewScheduler(procs, origin, opts)
}

// NewArbitrator returns a QoS arbitrator.
func NewArbitrator(cfg ArbitratorConfig) (*Arbitrator, error) {
	return qos.NewArbitrator(cfg)
}

// NewAgent returns a QoS agent for the application task system.
func NewAgent(job Job) *Agent { return qos.NewAgent(job) }

// ParseTunability compiles tunability-language source (the paper's
// Section-4 extensions) into a task graph; the graph's Job method
// materializes admissible jobs.
func ParseTunability(name, src string) (*Graph, error) {
	return tunelang.Parse(name, src)
}

// AssignProcessors converts count-based placements into concrete
// processor-ID bindings.
func AssignProcessors(capacity int, placements []*Placement) ([]Assignment, error) {
	return core.AssignProcessors(capacity, placements)
}

// DAG scheduling ("a chain, or more generally, a dag" — Section 3.1).
type (
	// DAG is a precedence graph of tasks.
	DAG = core.DAG
	// DAGTask is one DAG node: a task plus predecessor indices.
	DAGTask = core.DAGTask
	// DAGJob is a tunable job over alternative DAGs.
	DAGJob = core.DAGJob
)

// Renegotiation (Section 3.1's dynamic resource levels).
type (
	// DynamicArbitrator renegotiates reservations when capacity changes.
	DynamicArbitrator = qos.DynamicArbitrator
	// DynamicStats counts renegotiation events.
	DynamicStats = qos.DynamicStats
)

// RangeSpec is a fine-continuous tunability knob with symbolic resource
// expressions (Section 4.1's third tunability model).
type RangeSpec = taskgraph.RangeSpec

// NewDynamicArbitrator returns a renegotiating arbitrator for capacity
// that changes over time (machines joining or leaving the pool).
func NewDynamicArbitrator(procs int, opts *Options) (*DynamicArbitrator, error) {
	return qos.NewDynamicArbitrator(procs, opts)
}

// Multi-resource scheduling: the paper's request-vector model ("a vector
// of values, one for each resource in the system").
type (
	// VectorCapacity names the machine's resource dimensions.
	VectorCapacity = core.VectorCapacity
	// VectorTask is a task with a per-dimension request.
	VectorTask = core.VectorTask
	// VectorChain is one execution path of a vector job.
	VectorChain = core.VectorChain
	// VectorJob is a tunable job over vector chains.
	VectorJob = core.VectorJob
	// VectorScheduler admits vector jobs.
	VectorScheduler = core.VectorScheduler
	// VectorPlacement is a vector job's reservation.
	VectorPlacement = core.VectorPlacement
)

// NewVectorScheduler returns a scheduler over a multi-dimensional
// capacity (processors, memory, bandwidth, ...).
func NewVectorScheduler(vc VectorCapacity, origin float64) (*VectorScheduler, error) {
	return core.NewVectorScheduler(vc, origin)
}

// Observability layer: metrics registry, structured decision tracing and
// chrome://tracing export (internal/obs).
type (
	// Observer ties metrics and trace sinks together and adapts them to
	// the hook points of the scheduler, arbitrators, runtime and sim.
	Observer = obs.Observer
	// ObserverConfig configures NewObserver.
	ObserverConfig = obs.Config
	// Registry is a named collection of atomic metrics.
	Registry = obs.Registry
	// RegistrySnapshot is a point-in-time registry state.
	RegistrySnapshot = obs.Snapshot
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceEventType names a trace event.
	TraceEventType = obs.EventType
	// TraceSink receives structured trace events.
	TraceSink = obs.TraceSink
	// RingSink retains the most recent trace events.
	RingSink = obs.RingSink
	// JSONLSink streams trace events as JSON lines.
	JSONLSink = obs.JSONLSink
	// SchedulerHooks instruments the admission pipeline (core.Options.Hooks).
	SchedulerHooks = core.Hooks
	// Tracer mints per-request trace identities and retains completed
	// lifecycle spans (arrival → route → plan → reserve → run → finish).
	// No arbitrator or plane takes one: whoever owns a request (a qosnet
	// server, an experiment loop) opens its arrival span and renders the
	// admission's finished phase record as that span's children.
	Tracer = obs.Tracer
	// SpanRec is one completed span of a request's lifecycle.  The spans
	// under an arrival span are its admission phases laid end to end
	// (route, probe as stage plan, plan, reserve, journal, ack): the same
	// nanoseconds as the request's /latency exemplar.
	SpanRec = obs.SpanRec
	// SpanNode is one node of a reconstructed per-request span tree.
	SpanNode = obs.SpanNode
)

// Predictability auditor: streaming SLO engine (admitted ⇒ deadline met),
// anomaly-triggered flight recorder and differential snapshot replay
// (internal/obs/slo).
type (
	// SLOEngine audits deadline conformance, admission latency and
	// utilization objectives with multi-window burn-rate alerts.
	SLOEngine = slo.Engine
	// SLOOptions configures NewSLOEngine.
	SLOOptions = slo.Options
	// SLOReport is a point-in-time conformance report.
	SLOReport = slo.Report
	// FlightRecorder snapshots recent spans and decision events to JSONL
	// when an anomaly trips.
	FlightRecorder = slo.Recorder
	// FlightSnapshot is one decoded flight-recorder snapshot.
	FlightSnapshot = slo.Snapshot
	// ReplayVerdict localizes a snapshot's fault to planner, router,
	// rebalancer or runtime.
	ReplayVerdict = slo.Verdict
)

// NewSLOEngine returns a streaming SLO auditor.
func NewSLOEngine(opts SLOOptions) *SLOEngine { return slo.New(opts) }

// NewFlightRecorder returns an anomaly-triggered flight recorder holding
// up to spanCap spans and eventCap decision events per snapshot.
func NewFlightRecorder(spanCap, eventCap int) *FlightRecorder {
	return slo.NewRecorder(spanCap, eventCap)
}

// ReplaySnapshot localizes a flight snapshot's fault offline; the verdict
// is a pure function of the snapshot.
func ReplaySnapshot(s *FlightSnapshot) ReplayVerdict { return slo.Replay(s) }

// BuildSpanTrees reconstructs one span tree per trace from completed
// span records (e.g. Tracer.Spans or a flight snapshot's spans).
func BuildSpanTrees(recs []SpanRec) map[obs.TraceID]*SpanNode {
	return obs.BuildSpanTrees(recs)
}

// Sharded admission plane: the machine's processor pool partitioned across
// independently locked arbitrator shards with best-of-k routing and
// broker-driven capacity rebalancing (internal/fed).
type (
	// FedArbitrator is the federated admission plane; it satisfies the
	// same negotiation surface as Arbitrator.
	FedArbitrator = fed.Arbitrator
	// FedConfig configures NewFederatedArbitrator.
	FedConfig = fed.Config
	// FedShard is one partition of the plane's processor pool.
	FedShard = fed.Shard
	// FedMetrics are the plane's obs instruments.
	FedMetrics = fed.Metrics
	// Rebalancer migrates processors between a plane's shards.
	Rebalancer = fed.Rebalancer
)

// NewFederatedArbitrator returns a sharded admission plane.
func NewFederatedArbitrator(cfg FedConfig) (*FedArbitrator, error) {
	return fed.New(cfg)
}

// NewFedMetrics resolves the plane's fed_* instruments in a registry.  The
// plane does not feed them: call Publish(plane) before reading or exporting
// the registry.
func NewFedMetrics(reg *Registry) *FedMetrics { return fed.NewMetrics(reg) }

// Admission forensics (rejection explainer, counterfactual what-if
// probes, headroom forecasting — internal/core + internal/obs/forensics).
type (
	// PlanDiagnosis explains one failed planning pass per candidate chain,
	// with a replay-verified suggestion that would admit the job.
	PlanDiagnosis = core.PlanDiagnosis
	// ChainDiagnosis is one candidate chain's failure analysis.
	ChainDiagnosis = core.ChainDiagnosis
	// SlackVector is the per-axis minimal relaxation admitting a chain.
	SlackVector = core.SlackVector
	// Constraint names the binding constraint of a failed placement
	// (width, deadline or capacity).
	Constraint = core.Constraint
	// WhatIfDelta is a counterfactual relaxation for Scheduler.WhatIf /
	// Arbitrator.WhatIf probes.
	WhatIfDelta = core.WhatIfDelta
	// Headroom is the "largest admissible job" frontier of a machine (or,
	// merged, of a sharded plane) over a sliding window.
	Headroom = core.Headroom
	// ForensicsRecorder retains recent rejection diagnoses in a bounded
	// ring with a per-job index, JSONL export and an /explain endpoint.
	ForensicsRecorder = forensics.Recorder
	// ForensicsRecord is one retained rejection diagnosis.
	ForensicsRecord = forensics.Record
	// HeadroomForecaster publishes the advertised frontier as gauges and
	// audits rejections against it (forecast misses).
	HeadroomForecaster = forensics.Forecaster
)

// Binding-constraint names reported by ChainDiagnosis.Constraint.
const (
	ConstraintWidth    = core.ConstraintWidth
	ConstraintDeadline = core.ConstraintDeadline
	ConstraintCapacity = core.ConstraintCapacity
)

// NewForensicsRecorder returns a rejection recorder retaining up to n
// diagnoses (n <= 0 selects the default capacity).  Install its Sink as
// Options.Diagnosis to capture every rejection (a federated plane stamps each
// diagnosis with the shard that computed it).
func NewForensicsRecorder(n int) *ForensicsRecorder { return forensics.NewRecorder(n) }

// NewHeadroomForecaster returns an empty headroom forecaster; feed it
// with Advertise (pull the frontier from the arbitrator's Headroom) and
// audit rejections with NoteRejection.
func NewHeadroomForecaster() *HeadroomForecaster { return forensics.NewForecaster() }

// DecodeForensicsJSONL parses a ForensicsRecorder.WriteJSONL stream back
// into records (the offline half of the rejection-cause artifact).
func DecodeForensicsJSONL(r io.Reader) ([]ForensicsRecord, error) {
	return forensics.DecodeJSONL(r)
}

// NewObserver returns an observer with the given configuration.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewRingSink returns a trace ring buffer holding up to n events.
func NewRingSink(n int) *RingSink { return obs.NewRingSink(n) }

// Utilization ledger: per-tenant capacity accounting with waste
// attribution across shards (internal/obs/ledger).
type (
	// Ledger is one shard's time-bucketed per-tenant capacity ledger
	// (committed, realized and capacity areas; tiered-ring retention).
	Ledger = ledger.Ledger
	// LedgerConfig configures NewLedger / NewShardedLedger.
	LedgerConfig = ledger.Config
	// LedgerKey identifies one accounting stream (tenant, class).
	LedgerKey = ledger.Key
	// ShardedLedger is one ledger per admission shard with lock-free
	// merged snapshots; its DecisionObserver is the adapter onto an
	// arbitrator's Observer.
	ShardedLedger = ledger.Sharded
	// LedgerSnapshot is an immutable point-in-time view: per-key totals,
	// time buckets and the derived utilization/waste/fragmentation/
	// fair-share series.
	LedgerSnapshot = ledger.Snapshot
	// LedgerTotals is one (tenant, class) stream's exact totals.
	LedgerTotals = ledger.Totals
	// LedgerBucket is one time slot of a snapshot.
	LedgerBucket = ledger.Bucket
	// FairShare is one stream's share of reserved area relative to an
	// equal split.
	FairShare = ledger.FairShare
)

// NewLedger returns a single utilization ledger, for callers that record
// into it themselves.
func NewLedger(cfg LedgerConfig) *Ledger { return ledger.New(cfg) }

// NewShardedLedger returns n per-shard ledgers: hook
// ShardedLedger.DecisionObserver into FedConfig.Observer (n = the plane's
// shard count) or ArbitratorConfig.Observer (n = 1) and stamp each shard's
// capacity with Shard(i).SetCapacity.
func NewShardedLedger(cfg LedgerConfig, n int) *ShardedLedger {
	return ledger.NewSharded(cfg, n)
}

// DecodeLedgerJSONL parses a LedgerSnapshot.WriteJSONL stream back into
// a snapshot (the offline half of the accounting artifact).
func DecodeLedgerJSONL(r io.Reader) (*LedgerSnapshot, error) {
	return ledger.DecodeJSONL(r)
}

type (
	// Shedder fronts any Negotiator with saturation admission control:
	// per-tenant quotas, weighted-fair service across priority classes,
	// and graceful load shedding with a bounded-starvation guarantee.
	Shedder = qos.Shedder
	// ShedderConfig configures NewShedder (quotas, class weights,
	// saturation threshold, starvation window).
	ShedderConfig = qos.ShedConfig
	// ShedDecision is one admission-control verdict, delivered to
	// ShedderConfig.Observer.
	ShedDecision = qos.ShedDecision
	// ShedderStats aggregates offered/admitted/shed counts per class.
	ShedderStats = qos.ShedStats
)

// ErrShed is the rejection returned for load-shed jobs; it wraps
// ErrRejected, so existing callers observe a normal rejection.
var ErrShed = qos.ErrShed

// Durable admission plane: write-ahead log + snapshots + replay-on-open
// crash recovery (internal/durable, internal/durable/vfs).
type (
	// DurablePlane is a sharded admission plane whose every admission
	// decision is committed to a write-ahead log before it is
	// acknowledged; reopening the log recovers the plane bit-exactly.
	DurablePlane = durable.Plane
	// DurableConfig configures OpenDurablePlane.
	DurableConfig = durable.Config
	// DurableStoreOptions selects the log's sync policy and snapshot
	// cadence.
	DurableStoreOptions = durable.StoreOptions
	// DurableSyncPolicy is when the log fsyncs (always, every-n, never).
	DurableSyncPolicy = durable.SyncPolicy
	// DurableRecovered reports what replay-on-open reconstructed.
	DurableRecovered = durable.Recovered
	// DurableState is the plane's committed state: the capacity profile,
	// live grants and the recovery clock.
	DurableState = durable.State
	// DurableMetrics are the durability layer's obs instruments.
	DurableMetrics = durable.Metrics
	// VFS is the durability layer's filesystem seam.
	VFS = vfs.FS
	// MemFS is the deterministic in-memory filesystem with an explicit
	// crash/durability model, for tests and crash loops.
	MemFS = vfs.Mem
	// FaultFS wraps any VFS with failing- and lying-disk injection.
	FaultFS = vfs.Fault
)

// Log sync policies for DurableStoreOptions.Sync.
const (
	DurableSyncAlways = durable.SyncAlways
	DurableSyncEveryN = durable.SyncEveryN
	DurableSyncNever  = durable.SyncNever
)

// OpenDurablePlane opens (or creates) a durable admission plane backed by
// a write-ahead log under cfg.Dir, replaying any existing log first.
func OpenDurablePlane(cfg DurableConfig) (*DurablePlane, DurableRecovered, error) {
	return durable.OpenPlane(cfg)
}

// ParseDurableSyncPolicy parses "always", "every-n" or "never".
func ParseDurableSyncPolicy(s string) (DurableSyncPolicy, error) {
	return durable.ParseSyncPolicy(s)
}

// DiffDurableStates reports the first field where two recovered states
// diverge (nil = bitwise-identical); the crash-loop oracle's comparator.
func DiffDurableStates(got, want *DurableState) error {
	return durable.DiffStates(got, want)
}

// NewDurableMetrics resolves the durability instruments in a registry,
// for DurableConfig.Metrics.
func NewDurableMetrics(reg *Registry) *DurableMetrics { return durable.NewMetrics(reg) }

// NewMemFS returns an empty in-memory filesystem (nothing durable yet).
func NewMemFS() *MemFS { return vfs.NewMem() }

// NewFaultFS wraps a filesystem with fault injection (write/sync error
// countdowns, fsync/rename lies, crash simulation).
func NewFaultFS(inner VFS) *FaultFS { return vfs.NewFault(inner) }

// NewShedder wraps a negotiator (monolithic or federated arbitrator)
// with quota/weighted-fair admission shedding.
func NewShedder(inner Negotiator, cfg ShedderConfig) (*Shedder, error) {
	return qos.NewShedder(inner, cfg)
}
