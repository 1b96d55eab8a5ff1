// Command milanmon is the cluster-level observability aggregator: once a
// second it scrapes the debug endpoint of N junctiond nodes (-debug-addr:
// /metrics, /slo, /latency, /ledger, /spans), merges what it read,
// stitches cross-process span trees, re-runs burn-rate alerting over the
// merged SLO view, and serves the cluster view over HTTP as JSON
// (/metrics, merged and per node, /trace, /slo, /nodes, /latency,
// /state).
//
// With -drive it also exercises the cluster: it negotiates jobs against
// the listed qosnet admission endpoints with client-minted root spans,
// so the stitched trees span the client (milanmon) and server
// (junctiond) processes.  -smoke turns the run into a checked 2-node
// smoke test: it asserts node liveness, merged-counter consistency, a
// merged admit-latency objective that judged every driven decision, and
// a cross-process arrival→route→plan→reserve→run span tree, writes the
// full cluster state to -state, and exits non-zero on failure.
//
// Usage:
//
//	milanmon -nodes HOST:PORT,HOST:PORT [-listen HOST:PORT]
//	         [-drive HOST:PORT,...] [-jobs N] [-procs P]
//	         [-smoke] [-timeout D] [-state FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/telemetry"
	"milan/internal/qos/qosnet"
)

const monNode = "milanmon"

func main() {
	nodesFlag := flag.String("nodes", "", "comma-separated debug-endpoint addresses (junctiond -debug-addr) to scrape (required)")
	listen := flag.String("listen", "127.0.0.1:0", "HTTP address for the cluster view (empty disables)")
	drive := flag.String("drive", "", "comma-separated qosnet admission addresses to negotiate demo jobs against")
	jobs := flag.Int("jobs", 8, "jobs to negotiate per -drive endpoint")
	procs := flag.Int("procs", 1, "processors per driven job")
	smoke := flag.Bool("smoke", false, "assert the cluster view and exit (2-node telemetry smoke)")
	timeout := flag.Duration("timeout", 30*time.Second, "smoke-assertion deadline")
	stateFile := flag.String("state", "", "write the final cluster state (JSON) to this file")
	flag.Parse()

	if *nodesFlag == "" {
		log.Fatal("milanmon: -nodes is required")
	}
	nodes := splitList(*nodesFlag)

	agg := telemetry.NewAggregator(telemetry.AggregatorConfig{Nodes: nodes})
	agg.Start()
	defer agg.Close()

	if *listen != "" {
		addr, srv, err := obs.Serve(agg.Handler(), *listen)
		if err != nil {
			log.Fatalf("milanmon: %v", err)
		}
		defer srv.Close()
		fmt.Printf("cluster view: http://%s (/metrics /trace /slo /nodes /latency /state)\n", addr)
	}

	if *drive != "" {
		if err := driveJobs(agg, splitList(*drive), *jobs, *procs); err != nil {
			fatal(agg, *stateFile, fmt.Errorf("drive: %w", err))
		}
	}

	if *smoke {
		if err := runSmoke(agg, len(nodes), *drive != "", *timeout); err != nil {
			fatal(agg, *stateFile, fmt.Errorf("smoke: %w", err))
		}
		writeState(agg, *stateFile)
		fmt.Println("smoke: OK")
		return
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	writeState(agg, *stateFile)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(agg *telemetry.Aggregator, stateFile string, err error) {
	writeState(agg, stateFile)
	log.Fatalf("milanmon: %v", err)
}

// writeState dumps the full cluster view (the CI failure artifact).
func writeState(agg *telemetry.Aggregator, path string) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(agg.State(), "", "  ")
	if err != nil {
		log.Printf("milanmon: marshal state: %v", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Printf("milanmon: write state: %v", err)
	}
}

// driveJobs negotiates jobs against each admission endpoint with
// client-minted traces: milanmon seeds its own span-ID range, opens the
// arrival root span before the qosnet call, and records a run span over
// the granted reservation — the client half of the cross-process trees.
func driveJobs(agg *telemetry.Aggregator, addrs []string, jobs, procs int) error {
	tracer := obs.NewTracer(4 * jobs * len(addrs))
	tracer.SeedIDs(telemetry.NodeIDBase(monNode))
	id := 0
	for _, addr := range addrs {
		cli, err := qosnet.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		for i := 0; i < jobs; i++ {
			id++
			job := core.Job{ID: id, Chains: []core.Chain{{
				Name: "milanmon-drive", Quality: 1, Tasks: []core.Task{
					{Name: "work", Procs: procs, Duration: 1, Deadline: 1e9},
				},
			}}}
			root := tracer.Start(tracer.NewTrace(), 0, "client.submit", obs.StageArrival, job.ID)
			job.Trace, job.Span = uint64(root.Trace()), uint64(root.ID())
			g, err := cli.Negotiate(job)
			if err == nil {
				run := tracer.StartAt(obs.TraceID(job.Trace), root.ID(), "job.run", obs.StageRun, job.ID, g.Placement.Start())
				run.SetAttr("shard", float64(g.Shard))
				run.EndAt(g.Placement.Finish())
			} else {
				root.SetErr(err.Error())
			}
			root.End()
		}
		cli.Close()
	}
	agg.InjectSpans(monNode, tracer.Spans())
	return nil
}

// runSmoke polls until the cluster view converges, then asserts it.
func runSmoke(agg *telemetry.Aggregator, wantNodes int, driven bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		if lastErr = checkCluster(agg, wantNodes, driven); lastErr == nil {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return lastErr
}

func checkCluster(agg *telemetry.Aggregator, wantNodes int, driven bool) error {
	// 1. Liveness: every node's last scrape succeeded.
	up := 0
	for _, st := range agg.Nodes() {
		if st.Up {
			up++
		}
	}
	if up != wantNodes {
		return fmt.Errorf("%d/%d nodes up", up, wantNodes)
	}

	// 2. Merged registry equals the per-node sum, bit-for-bit on
	// counters (recomputed here independently of MergedRegistry).
	merged, err := agg.MergedRegistry()
	if err != nil {
		return err
	}
	perNode := agg.NodeSnapshots()
	if len(perNode) != wantNodes {
		return fmt.Errorf("%d/%d node snapshots scraped", len(perNode), wantNodes)
	}
	sums := make(map[string]int64)
	for _, snap := range perNode {
		for name, v := range snap.Counters {
			sums[name] += v
		}
	}
	if len(sums) != len(merged.Counters) {
		return fmt.Errorf("merged registry has %d counters, per-node sum has %d", len(merged.Counters), len(sums))
	}
	for name, want := range sums {
		if got := merged.Counters[name]; got != want {
			return fmt.Errorf("merged counter %s = %d, per-node sum = %d", name, got, want)
		}
	}

	if !driven {
		return nil
	}

	// 3. The driven load is visible in the merged SLO view, and the
	// admit-latency objective, fed from each node's latency plane at its
	// once-a-second Tick, has judged every decision: its long window (600 s,
	// longer than any smoke) holds one sample per decision.
	st := agg.MergedSLO()
	if st.Admitted+st.Rejected == 0 {
		return fmt.Errorf("merged SLO view saw no decisions")
	}
	var judged int64 = -1
	for _, o := range st.Objectives {
		if o.Name == "admit-latency" {
			judged = o.LongTotal
		}
	}
	if judged != st.Admitted+st.Rejected {
		return fmt.Errorf("merged admit-latency objective judged %d admissions, the nodes decided %d", judged, st.Admitted+st.Rejected)
	}

	// 4. A cross-process span tree stitches the client's arrival span to
	// the server's route→plan→reserve pipeline and the client's run
	// span: spans from at least two distinct ID ranges (= processes,
	// per SeedIDs) under one root.
	monBase := telemetry.NodeIDBase(monNode) >> 32
	for _, tree := range agg.SpanTrees() {
		if tree.FindStage(obs.StageArrival) == nil ||
			tree.FindStage(obs.StageRoute) == nil ||
			tree.FindStage(obs.StagePlan) == nil ||
			tree.FindStage(obs.StageReserve) == nil ||
			tree.FindStage(obs.StageRun) == nil {
			continue
		}
		origins := make(map[uint64]bool)
		tree.Walk(func(n *obs.SpanNode) {
			if n.ID != 0 {
				origins[uint64(n.ID)>>32] = true
			}
		})
		if len(origins) >= 2 && origins[monBase] {
			return nil
		}
	}
	return fmt.Errorf("no stitched cross-process span tree with arrival/route/plan/reserve/run from >=2 processes")
}
