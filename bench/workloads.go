package main

// spec is one workload: a Figure-4 job stream in simulated time, and the
// served stack and load shape that stream is pushed through.  The names are
// fixed; later issues cite them.
type spec struct {
	Name string
	// Why is the workload's reason to exist, as BENCHMARK.json records it.
	Why string

	// The Figure-4 job (workload.FigureJob) and its Poisson release process.
	X       int
	T       float64
	Alpha   float64
	Laxity  float64
	Procs   int
	MeanGap float64
	Tenants []string
	Classes int

	// Sync is junctiond's -wal-sync policy.
	Sync string
	// Clients is the number of connections, each driven by one goroutine.
	Clients int
	// OpenRate, when positive, makes the loop open: requests fall due on a
	// wall-clock Poisson schedule at this many per second over all clients
	// and are timed from when they could first be sent (lap.from).  Zero is a
	// closed loop.
	OpenRate float64

	// Warmup is the untimed stream prefix that brings the capacity profile
	// to its steady depth; it counts towards setup_s.
	Warmup int
	// FillSeed, when set, draws the warm-up prefix's releases from this seed
	// whatever --seed is; --seed draws every release after it.  deep_backlog
	// needs it: its identical jobs, once the backlog has filled the horizon,
	// pack into a lattice that reproduces itself at the frontier for good, and
	// the fill decides which one.  Of 60 seed-drawn fills 50 settled into the
	// lattice of 3271 segments and 56 index steps a decision, 5 into others
	// much like it, and 5 into one of 3372 segments whose earliest-fit search
	// takes 1527 steps a decision, Plan 30 us for 19: two populations under one
	// name, a third apart.  From fill 2 every one of 240 seeds stays in the
	// common lattice.
	FillSeed int64
	// Lap is the number of jobs generated, pushed and verified as one unit;
	// generation and verification happen between laps, outside the timing.
	Lap int
	// CountLaps is how many measured laps feed admit_ratio and utilization.
	// A round measures for a time, so its length varies with the machine; the
	// two ratios are taken over this fixed prefix, which every round runs to
	// even when its time is up, so that they repeat exactly for a seed.
	CountLaps int
	// TraceOps is the stream prefix each ladder rung and traced pass replays
	// per 20 s of --seconds.
	TraceOps int
}

// ordered reports whether decisions reach the plane in stream order, so that
// they must equal an in-process arbitrator's bit for bit.
func (s *spec) ordered() bool { return s.Clients == 1 }

// observeEvery is the stream's clock cadence: one Observe per this many
// arrivals, carrying the release time of the arrival one cadence back.  The
// lag keeps the observed clock behind every job still in flight when two
// clients race (a reservation may not start before the plane's clock).
const observeEvery = 8

// latencyLimitNs is the admission latency limit behind within_limit_ratio.
const latencyLimitNs = 2_000_000

var campaignTenants = []string{"acme-a", "acme-b", "acme-c", "acme-d"}

var workloads = []spec{
	{
		Name: "steady_wire",
		Why:  "83% offered load, ~44-segment profile, buffered journal: gob and loopback are ~75% of the round-trip, so qosnet does most of the work",
		X:    8, T: 20, Alpha: 0.5, Laxity: 0.5, Procs: 64, MeanGap: 6,
		Sync: "never", Clients: 1,
		Warmup: 4096, Lap: 8192, CountLaps: 8, TraceOps: 20000,
	},
	{
		Name: "steady_sync_open",
		Why:  "same stream, a flush per decision on a nominal 300 us disk, open loop at 500 req/s over 2 connections, generator lag excluded: independent agents find the stack idle, the flush is most of the latency",
		X:    8, T: 20, Alpha: 0.5, Laxity: 0.5, Procs: 64, MeanGap: 6,
		Sync: "always", Clients: 2, OpenRate: 500,
		Warmup: 2048, Lap: 256, CountLaps: 8, TraceOps: 3000,
	},
	{
		Name: "overload_sync_c2",
		Why:  "3.3x overload with tenants, a flush per decision on a nominal 300 us disk, 2 closed-loop clients: ~70% rejections and two callers contending for the plane mutex",
		X:    8, T: 20, Alpha: 0.5, Laxity: 0.5, Procs: 64, MeanGap: 1.5,
		Tenants: campaignTenants, Classes: 3,
		Sync: "always", Clients: 2,
		Warmup: 2048, Lap: 2048, CountLaps: 3, TraceOps: 6000,
	},
	{
		Name: "deep_backlog",
		Why:  "laxity 0.98 at 1.15x offered load fills the 1200-unit horizon (fill drawn from a fixed seed), ~3270 live profile segments: Scheduler.Plan is most of the round-trip, so core does most of the work",
		X:    2, T: 8, Alpha: 0.5, Laxity: 0.98, Procs: 128, MeanGap: 0.215,
		Sync: "never", Clients: 1,
		Warmup: 32768, FillSeed: 2, Lap: 4096, CountLaps: 8, TraceOps: 12000,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
