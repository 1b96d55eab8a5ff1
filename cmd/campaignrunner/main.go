// Command campaignrunner drives randomized adversarial campaigns against
// the admission planes and prints a re-runnable verdict for every cell of
// the scenario matrix.
//
// Every invocation prints its master seed first; re-running with
// `-seed <S>` reproduces the identical event sequence, decision digests
// and breach verdicts.  A typical CI smoke:
//
//	campaignrunner -duration 30s -jobs 150
//	campaignrunner -seed 42 -rounds 2 -artifacts /tmp/breaches
//
// The run exits 1 when any invariant breach occurred; each breach's
// replayable breach artifact (the seed, the breach and the flight-recorder
// snapshot; campaign.DecodeArtifact reads it) is written under
// -artifacts, and `-inject` deliberately breaks one subsystem to prove
// the pipeline localizes the fault:
//
//	campaignrunner -seed 7 -inject over-admission -artifacts /tmp/a
//
// yields artifacts whose replay convicts the planner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"milan/internal/campaign"
	"milan/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 0, "master seed (0 = derive from the clock; the chosen seed is always printed)")
		rounds    = fs.Int("rounds", 1, "campaign rounds to run (each round reseeds deterministically from the master seed)")
		duration  = fs.Duration("duration", 0, "wall-clock budget; stops starting new rounds once exceeded (0 = no budget)")
		jobs      = fs.Int("jobs", 300, "arrivals per scenario run")
		procs     = fs.Int("procs", 32, "plane capacity in processors")
		scenario  = fs.String("scenario", "", "run only this scenario (default: the full matrix)")
		inject    = fs.String("inject", "", "deliberate fault: over-admission | completion-delay | shedder-bypass")
		artifacts = fs.String("artifacts", "", "directory for breach artifacts (JSONL, one file per breach)")
		list      = fs.Bool("list", false, "list the scenario matrix and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, sc := range campaign.Matrix() {
			planes := ""
			for i, p := range sc.Planes {
				if i > 0 {
					planes += ","
				}
				planes += string(p)
			}
			fmt.Fprintf(stdout, "%-20s [%s] %s\n", sc.Name, planes, sc.Doc)
		}
		return 0
	}

	var inj campaign.Inject
	switch *inject {
	case "":
	case "over-admission":
		inj.OverAdmission = true
	case "completion-delay":
		inj.CompletionDelay = 500
	case "shedder-bypass":
		inj.ShedderBypass = true
	default:
		fmt.Fprintf(stderr, "campaignrunner: unknown -inject %q\n", *inject)
		return 2
	}

	master := *seed
	if master == 0 {
		master = time.Now().UnixNano()
	}
	fmt.Fprintf(stdout, "campaign seed=%d\n", master)

	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintf(stderr, "campaignrunner: %v\n", err)
			return 2
		}
	}

	var filter []string
	if *scenario != "" {
		filter = []string{*scenario}
	}

	start := time.Now()
	breaches := 0
	for round := 1; round <= *rounds; round++ {
		if *duration > 0 && round > 1 && time.Since(start) >= *duration {
			fmt.Fprintf(stdout, "budget exhausted after %d rounds\n", round-1)
			break
		}
		rep, err := campaign.Run(campaign.Config{
			Procs:     *procs,
			Jobs:      *jobs,
			Seed:      master + int64(round-1),
			Scenarios: filter,
			Inject:    inj,
		})
		if err != nil {
			fmt.Fprintf(stderr, "campaignrunner: %v\n", err)
			return 2
		}
		for _, rr := range rep.Runs {
			fmt.Fprintf(stdout, "round %d %-20s %-8s seed=%d jobs=%d admitted=%d rejected=%d shed=%d digest=%016x breaches=%d\n",
				round, rr.Scenario, rr.Plane, rr.Seed, rr.Jobs, rr.Admitted, rr.Rejected, rr.Shed, rr.Digest, len(rr.Breaches))
			for _, b := range rr.Breaches {
				fmt.Fprintf(stdout, "  BREACH %s\n", b)
				if b.Artifact != nil && *artifacts != "" {
					name := fmt.Sprintf("%03d-%s-%s-%s.jsonl", breaches, b.Scenario, b.Plane, b.Invariant)
					path := filepath.Join(*artifacts, name)
					if err := obs.CreateArtifact(path, b.Artifact.WriteJSONL); err != nil {
						fmt.Fprintf(stderr, "campaignrunner: %v\n", err)
						return 2
					}
					fmt.Fprintf(stdout, "  artifact %s (replay: campaignrunner -seed %d -scenario %s)\n",
						path, master, b.Scenario)
				}
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "FAIL: %d invariant breach(es); re-run with -seed %d to reproduce\n", breaches, master)
		return 1
	}
	fmt.Fprintf(stdout, "ok: no invariant breaches\n")
	return 0
}
