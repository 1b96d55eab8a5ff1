// Package milan is a Go reproduction of "Exploiting Application Tunability
// for Efficient, Predictable Parallel Resource Management" (Chang,
// Karamcheti, Kedem — IPPS/SPDP 1999): predictable parallel resource
// management that exploits application tunability, the ability of an
// application to trade resource requirements over time while maintaining
// output quality.
//
// The package is a facade over the implementation packages, and re-exports
// what the examples, the tests and the README use — nothing else
// (TestFacadeNamesAreUsed keeps it so):
//
//   - Scheduling core (tasks, chains, tunable jobs, the greedy
//     maximal-holes heuristic): internal/core.
//   - QoS agents (Section 3's architecture), including a TCP negotiation
//     protocol: internal/qos.
//   - The QoS arbitrator: the admission plane junctiond serves, one shard
//     by default, partitioned across shards on request: internal/fed.
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
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/ledger"
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
	// Options selects scheduler policies (placement engine, tie-breaking,
	// malleable allocation).
	Options = core.Options
	// Scheduler is the greedy admission-control scheduler.
	Scheduler = core.Scheduler
)

// QoS architecture (Section 3).
type (
	// Arbitrator is the system-wide QoS arbitrator: the admission plane
	// junctiond serves.  At one shard (the default) it decides exactly what
	// the paper's single arbitrator does; with ArbitratorConfig.Shards > 1
	// the processor pool is partitioned across independently locked shards
	// with best-of-k routing and broker-driven rebalancing.
	Arbitrator = fed.Arbitrator
	// ArbitratorConfig configures NewArbitrator; a zero Shards means one.
	ArbitratorConfig = fed.Config
	// Agent is an application's QoS agent: its task system, negotiated
	// with an arbitrator through NegotiateWith.
	Agent = qos.Agent
	// Grant is a successful negotiation's result.
	Grant = qos.Grant
	// Decision is the one typed event of an admission plane, handed to
	// ArbitratorConfig.Observer at the point the mutation it describes is
	// committed.
	Decision = qos.Decision
)

// Scheduler policy constants, re-exported for Options.
const (
	EngineHoles             = core.EngineHoles
	TieBreakMinArea         = core.TieBreakMinArea
	MalleableEarliestFinish = core.MalleableEarliestFinish
)

// ErrRejected is returned when admission control rejects a job.
var ErrRejected = qos.ErrRejected

// NewScheduler returns the greedy admission-control scheduler for `procs`
// processors starting at time origin (nil opts = the paper's policies).
func NewScheduler(procs int, origin float64, opts *Options) *Scheduler {
	return core.NewScheduler(procs, origin, opts)
}

// NewArbitrator returns a QoS arbitrator.
func NewArbitrator(cfg ArbitratorConfig) (*Arbitrator, error) {
	return fed.New(cfg)
}

// NewAgent returns a QoS agent for the application task system.
func NewAgent(job Job) *Agent { return qos.NewAgent(job) }

// ParseTunability compiles tunability-language source (the paper's
// Section-4 extensions) into a task graph; the graph's Job method
// materializes admissible jobs.
func ParseTunability(name, src string) (*taskgraph.Graph, error) {
	return tunelang.Parse(name, src)
}

// AssignProcessors converts count-based placements into concrete
// processor-ID bindings.
func AssignProcessors(capacity int, placements []*Placement) ([]core.Assignment, error) {
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

// NewDynamicArbitrator returns a renegotiating arbitrator for capacity
// that changes over time (machines joining or leaving the pool; Section
// 3.1's dynamic resource levels).
func NewDynamicArbitrator(procs int, opts *Options) (*qos.DynamicArbitrator, error) {
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
)

// NewVectorScheduler returns a scheduler over a multi-dimensional
// capacity (processors, memory, bandwidth, ...).
func NewVectorScheduler(vc VectorCapacity, origin float64) (*core.VectorScheduler, error) {
	return core.NewVectorScheduler(vc, origin)
}

// ObserverConfig configures NewObserver (internal/obs).
type ObserverConfig = obs.Config

// NewObserver returns an observer: a metrics registry and a trace ring
// that hang off an arbitrator's decision feed (set ArbitratorConfig.Observer
// to its DecisionObserver).
func NewObserver(cfg ObserverConfig) *obs.Observer { return obs.New(cfg) }

// LedgerConfig configures NewShardedLedger (internal/obs/ledger).
type LedgerConfig = ledger.Config

// NewShardedLedger returns n per-shard utilization ledgers: hook
// DecisionObserver into ArbitratorConfig.Observer (n = the plane's shard
// count) and stamp each shard's capacity with Shard(i).SetCapacity.
func NewShardedLedger(cfg LedgerConfig, n int) *ledger.Sharded {
	return ledger.NewSharded(cfg, n)
}

// DecodeLedgerJSONL parses a ledger snapshot's WriteJSONL stream back into
// a snapshot (the offline half of the accounting artifact).
func DecodeLedgerJSONL(r io.Reader) (*ledger.Snapshot, error) {
	return ledger.DecodeJSONL(r)
}
