package milan_test

import (
	"errors"
	"fmt"

	"milan"
)

// The headline flow: a tunable job offers two shapes; the arbitrator
// reserves the one that finishes first on the current schedule.
func ExampleAgent_NegotiateWith() {
	arb, _ := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 16})
	job := milan.Job{ID: 1, Chains: []milan.Chain{
		{Name: "wide-first", Tasks: []milan.Task{
			{Name: "a", Procs: 16, Duration: 25, Deadline: 200},
			{Name: "b", Procs: 4, Duration: 100, Deadline: 250},
		}},
		{Name: "narrow-first", Tasks: []milan.Task{
			{Name: "b", Procs: 4, Duration: 100, Deadline: 200},
			{Name: "a", Procs: 16, Duration: 25, Deadline: 250},
		}},
	}}
	grant, err := milan.NewAgent(job).NegotiateWith(arb)
	if err != nil {
		fmt.Println("rejected")
		return
	}
	fmt.Printf("path %d finishes at t=%.0f\n", grant.Chain, grant.Finish())
	// Output: path 0 finishes at t=125
}

// Admission control rejects a job whose every path would miss a deadline,
// instead of letting it run late.
func ExampleArbitrator_rejection() {
	arb, _ := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 4})
	hog := milan.Job{ID: 1, Chains: []milan.Chain{
		{Tasks: []milan.Task{{Name: "h", Procs: 4, Duration: 50, Deadline: 50}}},
	}}
	milan.NewAgent(hog).NegotiateWith(arb)

	urgent := milan.Job{ID: 2, Chains: []milan.Chain{
		{Tasks: []milan.Task{{Name: "u", Procs: 4, Duration: 10, Deadline: 30}}},
	}}
	_, err := milan.NewAgent(urgent).NegotiateWith(arb)
	fmt.Println(errors.Is(err, milan.ErrRejected))
	// Output: true
}

// Tunability in the paper's language: the preprocessor derives the task
// graph, the arbitrator picks a path, and the environment carries the
// control-parameter values to configure the application with.
func ExampleParseTunability() {
	graph, err := milan.ParseTunability("app", `
task_control_parameters { passes; }
task analyze deadline 30 params (passes) {
    config (passes = 2) require 8 procs 10 time quality 1.0;
    config (passes = 1) require 2 procs 10 time quality 0.9;
}
`)
	if err != nil {
		panic(err)
	}
	job, envs, _ := graph.Job(1, 0, 0)

	// A busy machine pushes the job onto the cheap path.
	arb, _ := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 8})
	busy := milan.Job{ID: 0, Chains: []milan.Chain{
		{Tasks: []milan.Task{{Name: "bg", Procs: 6, Duration: 15, Deadline: 15}}},
	}}
	milan.NewAgent(busy).NegotiateWith(arb)

	grant, _ := milan.NewAgent(job).NegotiateWith(arb)
	fmt.Printf("passes=%v quality=%.1f\n", envs[grant.Chain]["passes"], grant.Quality)
	// Output: passes=1 quality=0.9
}

// DAG jobs: a fork-join diamond schedules its independent branches
// concurrently when the machine is wide enough.
func ExampleScheduler_AdmitDAG() {
	s := milan.NewScheduler(8, 0, nil)
	diamond := milan.DAG{
		Name: "diamond",
		Tasks: []milan.DAGTask{
			{Task: milan.Task{Name: "prep", Procs: 2, Duration: 5, Deadline: 100}},
			{Task: milan.Task{Name: "left", Procs: 4, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: milan.Task{Name: "right", Procs: 4, Duration: 10, Deadline: 100}, Preds: []int{0}},
			{Task: milan.Task{Name: "merge", Procs: 2, Duration: 5, Deadline: 100}, Preds: []int{1, 2}},
		},
	}
	pl, _ := s.AdmitDAG(milan.DAGJob{ID: 1, Alts: []milan.DAG{diamond}})
	fmt.Printf("branches start together at t=%.0f; makespan %.0f\n",
		pl.Tasks[1].Start, pl.Tasks[3].Finish)
	// Output: branches start together at t=5; makespan 20
}
