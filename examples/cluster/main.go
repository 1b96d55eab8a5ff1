// Cluster deployment: the QoS arbitrator serves a TCP endpoint backed by a
// resource-broker pool; QoS agents in separate goroutines (standing in for
// separate processes on cluster nodes) negotiate reservations over the
// wire, exactly as MILAN's distributed components would.
//
// The second act makes the arbitrator follow the broker: its capacity is
// the pool's, and registering a new machine mid-run grows the plane
// without restarting the server.
//
// The third act federates the observability plane itself: an aggregator
// (milanmon's engine) scrapes the plane's debug endpoint and prints the
// per-node and merged cluster view.
//
//	go run ./examples/cluster
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"milan"
	"milan/internal/obs"
	"milan/internal/obs/telemetry"
	"milan/internal/qos/qosnet"
	"milan/internal/resbroker"
	"milan/internal/workload"
)

func main() {
	// Assemble the machine from broker-registered resources, as MILAN's
	// ResourceBroker integrates machines into the pool.
	broker := resbroker.New(resbroker.FastestFirst{})
	broker.Subscribe(func(ev resbroker.Event) {
		fmt.Printf("broker: %-12s free=%d\n", ev.Kind, ev.FreeProcs)
	})
	for _, r := range []resbroker.Resource{
		{ID: "smp-a", Procs: 8, Speed: 1.0},
		{ID: "smp-b", Procs: 8, Speed: 1.2},
		{ID: "legacy", Procs: 4, Speed: 0.6},
	} {
		if err := broker.Register(r); err != nil {
			log.Fatal(err)
		}
	}
	// The arbitrator manages the pool the broker assembled for it.
	binding, err := broker.Bind(resbroker.Request{Computation: "arbitrator", MinProcs: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arbitrator bound %d processors across %d resources\n\n", binding.Procs(), len(binding.Shares))

	arb, err := milan.NewArbitrator(milan.ArbitratorConfig{Procs: binding.Procs()})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := qosnet.ListenAndServe(arb, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("arbitrator listening on %s\n\n", srv.Addr())

	// Eight client applications negotiate concurrently over TCP, each a
	// tunable Figure-4 job.
	spec := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	var wg sync.WaitGroup
	results := make([]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := qosnet.Dial(srv.Addr().String())
			if err != nil {
				results[i] = fmt.Sprintf("client %d: dial: %v", i, err)
				return
			}
			defer cli.Close()
			agent := milan.NewAgent(spec.Job(i, 0, workload.Tunable))
			g, err := agent.NegotiateWith(cli)
			switch {
			case errors.Is(err, milan.ErrRejected):
				results[i] = fmt.Sprintf("client %d: rejected (admission control)", i)
			case err != nil:
				results[i] = fmt.Sprintf("client %d: %v", i, err)
			default:
				results[i] = fmt.Sprintf("client %d: granted path %d, finish t=%.0f", i, g.Chain, g.Finish())
			}
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}

	cli, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	st, err := cli.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narbitrator: %d admitted, %d rejected, chain choices %v\n",
		st.Admitted, st.Rejected, st.TunableChosen)

	fmt.Println()
	if err := followBroker(); err != nil {
		log.Fatal(err)
	}
}

// followBroker serves an arbitrator over the same qosnet wire protocol
// whose capacity follows the broker (AttachBroker), so the plane tracks the
// pool as machines join and leave.
func followBroker() error {
	fmt.Println("--- an arbitrator that follows the broker ---")
	machines := []resbroker.Resource{
		{ID: "node-0", Procs: 8, Speed: 1.0},
		{ID: "node-1", Procs: 8, Speed: 1.0},
		{ID: "node-2", Procs: 8, Speed: 1.0},
	}
	broker := resbroker.New(resbroker.FastestFirst{})
	for _, r := range machines {
		if err := broker.Register(r); err != nil {
			return err
		}
	}

	// The observer counts the plane's decisions (sched_admitted,
	// sched_rejected) as they commit, under the plane's lock.
	reg := obs.NewRegistry()
	o := milan.NewObserver(milan.ObserverConfig{Registry: reg, Tracing: true})
	plane, err := milan.NewArbitrator(milan.ArbitratorConfig{
		Procs:    broker.TotalProcs(),
		Observer: o.DecisionObserver(nil),
	})
	if err != nil {
		return err
	}
	detach, err := plane.AttachBroker(broker, 0)
	if err != nil {
		return err
	}
	defer detach()
	fmt.Printf("plane: %d processors from %d machines\n", plane.Procs(), len(machines))

	srv, err := qosnet.ListenAndServe(plane, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("plane listening on %s\n", srv.Addr())

	// The debug endpoint publishes the plane's health: /healthz aggregates
	// liveness with broker and capacity readiness, so an orchestrator can
	// gate traffic on the plane actually holding usable capacity.
	o.AddHealthCheck("broker", func() error {
		if broker.TotalProcs() == 0 {
			return fmt.Errorf("no registered capacity")
		}
		return nil
	})
	spec := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	o.AddHealthCheck("capacity", func() error {
		if p := plane.Procs(); p < spec.X {
			return fmt.Errorf("plane below the widest task (%d < %d)", p, spec.X)
		}
		return nil
	})
	srv.Instrument(qosnet.Instruments{Tracer: o.Tracer()}) // every request's span tree on /spans
	dbgAddr, dbg, err := obs.Serve(o.Handler(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dbg.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", dbgAddr))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("debug endpoint http://%s  /healthz -> %d %s\n", dbgAddr, resp.StatusCode, body)

	var wg sync.WaitGroup
	results := make([]string, 12)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := qosnet.Dial(srv.Addr().String())
			if err != nil {
				results[i] = fmt.Sprintf("client %d: dial: %v", i, err)
				return
			}
			defer cli.Close()
			agent := milan.NewAgent(spec.Job(i, 0, workload.Tunable))
			g, err := agent.NegotiateWith(cli)
			switch {
			case errors.Is(err, milan.ErrRejected):
				results[i] = fmt.Sprintf("client %d: rejected (admission control)", i)
			case err != nil:
				results[i] = fmt.Sprintf("client %d: %v", i, err)
			default:
				results[i] = fmt.Sprintf("client %d: granted path %d, finish t=%.0f", i, g.Chain, g.Finish())
			}
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}

	// A machine joins the cluster mid-run: the broker event resizes the
	// plane, one processor at a time.
	fmt.Printf("\nprocs before join: %d\n", plane.Procs())
	if err := broker.Register(resbroker.Resource{ID: "node-3", Procs: 8, Speed: 1.0}); err != nil {
		return err
	}
	fmt.Printf("registered node-3: %d procs\n", plane.Procs())

	st := plane.Stats()
	fmt.Printf("\nplane: %d admitted, %d rejected, chain choices %v\n",
		st.Admitted, st.Rejected, st.TunableChosen)
	return federatedTelemetry(reg, dbgAddr.String())
}

// federatedTelemetry is the third act: an aggregator — milanmon's engine
// — scrapes the debug endpoint the plane already serves, the same way
// milanmon scrapes every junctiond's -debug-addr, and prints the per-node
// and merged counters milanmon's /metrics serves.
func federatedTelemetry(reg *obs.Registry, debugAddr string) error {
	fmt.Println("\n--- telemetry: aggregator scraping the debug endpoint ---")
	agg := telemetry.NewAggregator(telemetry.AggregatorConfig{
		Nodes:    []string{debugAddr},
		Interval: 50 * time.Millisecond,
	})
	agg.Start()
	defer agg.Close()

	// Wait for the scraped view to show the live registry's admission
	// counter (every scrape is the whole cumulative state).
	deadline := time.Now().Add(5 * time.Second)
	for {
		merged, err := agg.MergedRegistry()
		if err == nil && merged.Counters[obs.MetricAdmitted] == reg.Snapshot().Counters[obs.MetricAdmitted] {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("telemetry view did not converge: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := agg.Nodes()[0]
	fmt.Printf("scraped %s: %d polls, last %.0f ms ago, %d spans held, %d dropped\n",
		st.Addr, st.Polls, 1000*st.LagSeconds, st.SpansHeld, st.SpansDropped)
	merged, err := agg.MergedRegistry()
	if err != nil {
		return err
	}
	fmt.Println("cluster view (/metrics JSON: each node's registry, keyed by address, and the merge):")
	for addr, snap := range agg.NodeSnapshots() {
		fmt.Printf("  node %-21s %s=%d %s=%d\n", addr,
			obs.MetricAdmitted, snap.Counters[obs.MetricAdmitted], obs.MetricRejected, snap.Counters[obs.MetricRejected])
	}
	fmt.Printf("  %-26s %s=%d %s=%d\n", "merged",
		obs.MetricAdmitted, merged.Counters[obs.MetricAdmitted], obs.MetricRejected, merged.Counters[obs.MetricRejected])
	return nil
}
