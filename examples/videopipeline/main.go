// Video pipeline: a soft real-time frame-analysis workload (the paper's
// motivating scenario — "an application analyzing a live video feed needs
// to complete its processing by the time the next frame arrives") driven
// through the discrete-event engine.  Tunable frames are compared against
// fixed-configuration frames under increasing load.
//
//	go run ./examples/videopipeline
package main

import (
	"errors"
	"fmt"
	"log"

	"milan"
	"milan/internal/sim"
	"milan/internal/workload"
)

// frameJob models one video frame's processing: either a front-loaded
// analysis (wide sampling then light tracking) or a back-loaded one (light
// sampling then wide analysis).  The deadline is the arrival of the next
// frame plus a small pipeline depth.
func frameJob(id int, release, framePeriod float64, procs int, tunable bool) milan.Job {
	deadline1 := release + framePeriod
	deadline2 := release + 2*framePeriod // pipeline depth of 2 frames
	wide := milan.Task{Name: "sample", Procs: procs, Duration: framePeriod * 0.6, Deadline: deadline1}
	lightTrack := milan.Task{Name: "track", Procs: 2, Duration: framePeriod * 0.6, Deadline: deadline2}
	lightSample := milan.Task{Name: "sample", Procs: 2, Duration: framePeriod * 0.5, Deadline: deadline1}
	wideAnalyze := milan.Task{Name: "analyze", Procs: procs, Duration: framePeriod * 0.5, Deadline: deadline2}

	frontLoaded := milan.Chain{Name: "front", Quality: 1, Tasks: []milan.Task{wide, lightTrack}}
	backLoaded := milan.Chain{Name: "back", Quality: 1, Tasks: []milan.Task{lightSample, wideAnalyze}}
	chains := []milan.Chain{frontLoaded}
	if tunable {
		chains = append(chains, backLoaded)
	}
	return milan.Job{ID: id, Name: fmt.Sprintf("frame-%d", id), Release: release, Chains: chains}
}

func run(tunable bool, frames int, framePeriod float64, procs int) (onTime int, util float64) {
	arb, err := milan.NewArbitrator(milan.ArbitratorConfig{Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	// Two camera feeds interleaved: frames arrive at twice the single-feed
	// rate with jitter, so the machine is contended.
	arrivals := workload.NewUniform(framePeriod*0.25, framePeriod*0.45, 7)
	jobs := workload.Stream(arrivals, frames, func(id int, release float64) milan.Job {
		return frameJob(id, release, framePeriod, procs/2, tunable)
	})
	var engine sim.Engine
	var lastFinish float64
	engine.Arrive(len(jobs), func(i int) float64 { return jobs[i].Release }, func(i int) {
		arb.Observe(jobs[i].Release)
		g, err := milan.NewAgent(jobs[i]).NegotiateWith(arb)
		if errors.Is(err, milan.ErrRejected) {
			return // frame dropped: better than a late result
		}
		if err != nil {
			log.Fatal(err)
		}
		onTime++
		if f := g.Finish(); f > lastFinish {
			lastFinish = f
		}
	})
	engine.Run()
	if lastFinish > 0 {
		util = arb.Utilization(0, lastFinish)
	}
	return onTime, util
}

func main() {
	const (
		frames      = 2000
		framePeriod = 33.0 // ~30 fps in milliseconds
		procs       = 8
	)
	fmt.Printf("video pipeline: %d frames from 2 feeds, %d processors, frame period %.0fms\n\n",
		frames, procs, framePeriod)

	fixedOnTime, fixedUtil := run(false, frames, framePeriod, procs)
	tunOnTime, tunUtil := run(true, frames, framePeriod, procs)

	fmt.Printf("%-22s %12s %12s\n", "system", "on-time", "utilization")
	fmt.Printf("%-22s %8d/%d %11.1f%%\n", "fixed configuration", fixedOnTime, frames, 100*fixedUtil)
	fmt.Printf("%-22s %8d/%d %11.1f%%\n", "tunable", tunOnTime, frames, 100*tunUtil)
	extra := tunOnTime - fixedOnTime
	fmt.Printf("\ntunability delivered %d additional on-time frames (%+.1f%%)\n",
		extra, 100*float64(extra)/float64(frames))
}
