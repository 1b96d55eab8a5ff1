package taskgraph

import (
	"math"
	"strings"
	"testing"

	"milan/internal/core"
)

// parGraph: prep, then two concurrent analyses (one tunable), then merge.
func parGraph() *Graph {
	task := func(name string, deadline float64, configs ...Config) *TaskNode {
		var params []string
		for _, c := range configs {
			for k := range c.Assign {
				if !contains(params, k) {
					params = append(params, k)
				}
			}
		}
		return &TaskNode{Name: name, Deadline: deadline, Params: params, Configs: configs}
	}
	return &Graph{
		Name: "pipeline",
		Params: map[string]float64{
			"mode": math.NaN(),
		},
		Root: Seq{
			task("prep", 10, Config{Procs: 2, Duration: 5}),
			&Par{
				Name: "analyses",
				Branches: []Node{
					task("audio", 40, Config{Procs: 2, Duration: 10}),
					task("video", 40,
						Config{Assign: map[string]float64{"mode": 1}, Procs: 6, Duration: 10, Quality: 1},
						Config{Assign: map[string]float64{"mode": 2}, Procs: 2, Duration: 25, Quality: 0.9},
					),
				},
			},
			task("merge", 100, Config{Procs: 2, Duration: 5}),
		},
	}
}

func TestParGraphEnumeratesDAGs(t *testing.T) {
	g := parGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	dags, envs, err := g.EnumerateDAGs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dags) != 2 {
		t.Fatalf("paths = %d, want 2 (video modes)", len(dags))
	}
	for i, d := range dags {
		if err := (core.DAGJob{Alts: []core.DAG{d}}).Validate(); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if len(d.Tasks) != 4 {
			t.Fatalf("path %d tasks = %d", i, len(d.Tasks))
		}
		// prep has no preds; audio and video depend on prep; merge depends
		// on both analyses.
		if len(d.Tasks[0].Preds) != 0 {
			t.Errorf("prep preds = %v", d.Tasks[0].Preds)
		}
		if len(d.Tasks[1].Preds) != 1 || d.Tasks[1].Preds[0] != 0 {
			t.Errorf("audio preds = %v", d.Tasks[1].Preds)
		}
		if len(d.Tasks[2].Preds) != 1 || d.Tasks[2].Preds[0] != 0 {
			t.Errorf("video preds = %v", d.Tasks[2].Preds)
		}
		if len(d.Tasks[3].Preds) != 2 {
			t.Errorf("merge preds = %v", d.Tasks[3].Preds)
		}
	}
	if envs[0]["mode"] != 1 || envs[1]["mode"] != 2 {
		t.Errorf("envs = %v", envs)
	}
	if math.Abs(dags[1].Quality-0.9) > 1e-12 {
		t.Errorf("mode-2 quality = %v", dags[1].Quality)
	}
}

func TestParGraphSchedulesWithOverlap(t *testing.T) {
	g := parGraph()
	job, _, err := g.DAGJob(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewScheduler(8, 0, nil)
	pl, err := s.AdmitDAG(job)
	if err != nil {
		t.Fatal(err)
	}
	// Mode 1 (6+2 procs fits on 8): audio and video run concurrently.
	if pl.Chain != 0 {
		t.Fatalf("chose path %d, want 0 (earliest finish)", pl.Chain)
	}
	audio, video := pl.Tasks[1], pl.Tasks[2]
	if audio.Start != video.Start {
		t.Fatalf("analyses not concurrent: %+v %+v", audio, video)
	}
	// Makespan: 5 + 10 + 5 = 20.
	if pl.Tasks[3].Finish != 20 {
		t.Fatalf("makespan = %v, want 20", pl.Tasks[3].Finish)
	}
}

func TestParGraphFallsBackToSerializableModeOnNarrowMachine(t *testing.T) {
	g := parGraph()
	job, _, err := g.DAGJob(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// On 4 procs, mode 1 (video needs 6) is infeasible entirely; mode 2
	// (2+2) still fits with overlap.
	s := core.NewScheduler(4, 0, nil)
	pl, err := s.AdmitDAG(job)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chain != 1 {
		t.Fatalf("chose path %d, want 1 (mode 2)", pl.Chain)
	}
}

func TestParChainEnumerationRefusesCleanly(t *testing.T) {
	g := parGraph()
	_, _, err := g.Enumerate(0)
	if err == nil || !strings.Contains(err.Error(), "DAG enumeration") {
		t.Fatalf("err = %v, want DAG-enumeration hint", err)
	}
}

func TestParValidation(t *testing.T) {
	g := &Graph{Name: "bad", Root: &Par{Name: "empty"}}
	if g.Validate() == nil {
		t.Error("empty par accepted")
	}
}

func TestDAGEnumerationMatchesChainsOnLinearGraphs(t *testing.T) {
	g := junctionGraph() // no Par nodes
	chains, chainEnvs, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	dags, dagEnvs, err := g.EnumerateDAGs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != len(dags) {
		t.Fatalf("chains %d != dags %d", len(chains), len(dags))
	}
	for i := range chains {
		if len(chains[i].Tasks) != len(dags[i].Tasks) {
			t.Fatalf("path %d task counts differ", i)
		}
		for ti := range chains[i].Tasks {
			ct, dt := chains[i].Tasks[ti], dags[i].Tasks[ti]
			if ct.Procs != dt.Procs || ct.Duration != dt.Duration || ct.Deadline != dt.Deadline {
				t.Fatalf("path %d task %d: %+v vs %+v", i, ti, ct, dt)
			}
			if ti > 0 && (len(dt.Preds) != 1 || dt.Preds[0] != ti-1) {
				t.Fatalf("path %d task %d preds = %v, want linear", i, ti, dt.Preds)
			}
		}
		for k, v := range chainEnvs[i] {
			if dagEnvs[i][k] != v {
				t.Fatalf("path %d env mismatch at %q", i, k)
			}
		}
	}
}

func TestParDescribe(t *testing.T) {
	out := parGraph().String()
	if !strings.Contains(out, "par analyses") {
		t.Errorf("String() missing par node:\n%s", out)
	}
}

func TestNestedParAndLoopDAG(t *testing.T) {
	mk := func(name string, procs int) *TaskNode {
		return &TaskNode{Name: name, Deadline: 100, Configs: []Config{{Procs: procs, Duration: 5}}}
	}
	g := &Graph{
		Name: "nested",
		Root: &Loop{
			Name:  "frames",
			Count: Lit(2),
			Body: &Par{
				Name:     "split",
				Branches: []Node{mk("a", 1), mk("b", 1)},
			},
		},
	}
	dags, _, err := g.EnumerateDAGs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dags) != 1 {
		t.Fatalf("paths = %d", len(dags))
	}
	d := dags[0]
	if len(d.Tasks) != 4 {
		t.Fatalf("tasks = %d, want 4 (2 iterations x 2 branches)", len(d.Tasks))
	}
	// Second iteration's tasks depend on both first-iteration tasks.
	for _, ti := range []int{2, 3} {
		if len(d.Tasks[ti].Preds) != 2 {
			t.Fatalf("iteration-2 task %d preds = %v, want join on both", ti, d.Tasks[ti].Preds)
		}
	}
	if err := (core.DAGJob{Alts: []core.DAG{d}}).Validate(); err != nil {
		t.Fatal(err)
	}
}
