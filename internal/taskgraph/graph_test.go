package taskgraph

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// junctionGraph builds the paper's Figure-3 junction detection program as a
// task graph: sampleImage (fine-discrete tunable), markRegion (a select on
// the sampling granularity that sets parameter c), computeJunctions (configs
// gated on c).
func junctionGraph() *Graph {
	return &Graph{
		Name: "junction-detection",
		Params: map[string]float64{
			"sampleGranularity": math.NaN(),
			"searchDistance":    math.NaN(),
			"c":                 math.NaN(),
		},
		Root: Seq{
			&TaskNode{
				Name:     "sampleImage",
				Deadline: 10,
				Params:   []string{"sampleGranularity"},
				Configs: []Config{
					{Assign: map[string]float64{"sampleGranularity": 16}, Procs: 4, Duration: 8, Quality: 1.0},
					{Assign: map[string]float64{"sampleGranularity": 64}, Procs: 4, Duration: 2, Quality: 0.95},
				},
			},
			&Select{
				Name: "markRegion",
				Branches: []Branch{
					{
						When: Binary{Op: OpEq, L: Ref("sampleGranularity"), R: Lit(16)},
						Body: &TaskNode{
							Name:     "markRegionFine",
							Deadline: 14,
							Params:   []string{"searchDistance"},
							Configs: []Config{
								{Assign: map[string]float64{"searchDistance": 2}, Procs: 2, Duration: 3, Quality: 1.0},
							},
						},
						Finally: []Assign{{Param: "c", Value: Lit(1)}},
					},
					{
						When: Binary{Op: OpEq, L: Ref("sampleGranularity"), R: Lit(64)},
						Body: &TaskNode{
							Name:     "markRegionCoarse",
							Deadline: 14,
							Params:   []string{"searchDistance"},
							Configs: []Config{
								{Assign: map[string]float64{"searchDistance": 8}, Procs: 2, Duration: 4, Quality: 1.0},
							},
						},
						Finally: []Assign{{Param: "c", Value: Lit(2)}},
					},
				},
			},
			&TaskNode{
				Name:     "computeJunctions",
				Deadline: 40,
				Params:   []string{"c"},
				Configs: []Config{
					{Assign: map[string]float64{"c": 1}, Procs: 4, Duration: 10, Quality: 1.0},
					{Assign: map[string]float64{"c": 2}, Procs: 8, Duration: 12, Quality: 0.9},
				},
			},
		},
	}
}

func TestJunctionGraphEnumeratesTwoConsistentPaths(t *testing.T) {
	g := junctionGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	chains, envs, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("got %d paths, want 2 (fine and coarse)", len(chains))
	}
	fine, coarse := chains[0], chains[1]
	if len(fine.Tasks) != 3 || len(coarse.Tasks) != 3 {
		t.Fatalf("task counts: %d, %d", len(fine.Tasks), len(coarse.Tasks))
	}
	// Fine path: expensive sampling (8 time), cheap junction compute.
	if fine.Tasks[0].Duration != 8 || fine.Tasks[2].Procs != 4 {
		t.Errorf("fine path = %+v", fine.Tasks)
	}
	// Coarse path: cheap sampling (2 time), expensive junction compute —
	// the resource tradeoff over time that defines tunability.
	if coarse.Tasks[0].Duration != 2 || coarse.Tasks[2].Procs != 8 {
		t.Errorf("coarse path = %+v", coarse.Tasks)
	}
	// Parameter environments captured the configuration choices.
	if envs[0]["sampleGranularity"] != 16 || envs[0]["c"] != 1 || envs[0]["searchDistance"] != 2 {
		t.Errorf("fine env = %v", envs[0])
	}
	if envs[1]["sampleGranularity"] != 64 || envs[1]["c"] != 2 || envs[1]["searchDistance"] != 8 {
		t.Errorf("coarse env = %v", envs[1])
	}
	// Quality composes multiplicatively.
	if math.Abs(fine.Quality-1.0) > 1e-12 {
		t.Errorf("fine quality = %v", fine.Quality)
	}
	if math.Abs(coarse.Quality-0.95*0.9) > 1e-12 {
		t.Errorf("coarse quality = %v, want %v", coarse.Quality, 0.95*0.9)
	}
}

func TestJobMaterializationShiftsDeadlines(t *testing.T) {
	g := junctionGraph()
	job, _, err := g.Job(7, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != 7 || job.Release != 100 || !job.Tunable() {
		t.Fatalf("job = %+v", job)
	}
	for _, c := range job.Chains {
		if c.Tasks[0].Deadline != 110 {
			t.Errorf("first deadline = %v, want 110", c.Tasks[0].Deadline)
		}
		if c.Tasks[2].Deadline != 140 {
			t.Errorf("last deadline = %v, want 140", c.Tasks[2].Deadline)
		}
	}
}

func TestConfigGuardsPruneInconsistentPaths(t *testing.T) {
	// A task whose only config requires c=3 after a select that sets c to
	// 1 or 2: no consistent path, Enumerate must fail loudly.
	g := junctionGraph()
	g.Root = append(g.Root.(Seq), &TaskNode{
		Name:     "impossible",
		Deadline: 50,
		Params:   []string{"c"},
		Configs: []Config{
			{Assign: map[string]float64{"c": 3}, Procs: 1, Duration: 1},
		},
	})
	_, _, err := g.Enumerate(0)
	if err == nil {
		t.Fatal("graph with no consistent path enumerated successfully")
	}
	if !strings.Contains(err.Error(), "no consistent execution path") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoopExpandsBody(t *testing.T) {
	g := &Graph{
		Name:   "looped",
		Params: map[string]float64{"iters": 3},
		Root: Seq{
			&Loop{
				Name:  "main",
				Count: Ref("iters"),
				Body: &TaskNode{
					Name:     "step",
					Deadline: 100,
					Configs:  []Config{{Procs: 2, Duration: 5, Quality: 1}},
				},
			},
		},
	}
	chains, _, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || len(chains[0].Tasks) != 3 {
		t.Fatalf("chains = %+v", chains)
	}
}

func TestLoopWithTunableBodyMultipliesPaths(t *testing.T) {
	g := &Graph{
		Name:   "looped-tunable",
		Params: map[string]float64{},
		Root: &Loop{
			Name:  "main",
			Count: Lit(2),
			Body: &TaskNode{
				Name:     "step",
				Deadline: 100,
				Params:   []string{"k"},
				Configs: []Config{
					{Assign: map[string]float64{"k": 1}, Procs: 1, Duration: 5},
					{Assign: map[string]float64{"k": 2}, Procs: 2, Duration: 3},
				},
			},
		},
	}
	chains, _, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	// The parameter guard makes the second iteration's choice consistent
	// with the first: k is bound after iteration 1, so only 2 paths (not 4).
	if len(chains) != 2 {
		t.Fatalf("got %d paths, want 2 (parameter-consistent)", len(chains))
	}
}

func TestLoopCountErrors(t *testing.T) {
	mk := func(count Expr) *Graph {
		return &Graph{
			Name: "bad-loop",
			Root: &Loop{Name: "l", Count: count, Body: &TaskNode{
				Name: "t", Deadline: 10, Configs: []Config{{Procs: 1, Duration: 1}},
			}},
		}
	}
	if _, _, err := mk(Lit(2.5)).Enumerate(0); err == nil {
		t.Error("fractional loop count accepted")
	}
	if _, _, err := mk(Lit(-1)).Enumerate(0); err == nil {
		t.Error("negative loop count accepted")
	}
	if _, _, err := mk(Ref("missing")).Enumerate(0); err == nil {
		t.Error("unbound loop count accepted")
	}
	// Zero iterations: body contributes nothing; graph has no tasks at all.
	if _, _, err := mk(Lit(0)).Enumerate(0); err == nil {
		t.Error("zero-task path accepted")
	}
}

func TestPathLimitEnforced(t *testing.T) {
	// 2^8 = 256 independent binary choices (distinct params, no guards).
	var seq Seq
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		seq = append(seq, &TaskNode{
			Name:     "t" + name,
			Deadline: 1000,
			Params:   []string{name},
			Configs: []Config{
				{Assign: map[string]float64{name: 0}, Procs: 1, Duration: 1},
				{Assign: map[string]float64{name: 1}, Procs: 1, Duration: 1},
			},
		})
	}
	g := &Graph{Name: "wide", Root: seq}
	if _, _, err := g.Enumerate(100); !errors.Is(err, errTooManyPaths) {
		t.Fatalf("err = %v, want ErrTooManyPaths", err)
	}
	chains, _, err := g.Enumerate(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 256 {
		t.Fatalf("got %d paths, want 256", len(chains))
	}
}

func TestSelectWhenErrors(t *testing.T) {
	g := &Graph{
		Name: "bad-select",
		Root: &Select{
			Name: "s",
			Branches: []Branch{{
				When: Ref("unbound"),
				Body: &TaskNode{Name: "t", Deadline: 10, Configs: []Config{{Procs: 1, Duration: 1}}},
			}},
		},
	}
	if _, _, err := g.Enumerate(0); err == nil {
		t.Fatal("unbound when-expr accepted")
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"no root", &Graph{Name: "g"}},
		{"task without configs", &Graph{Name: "g", Root: &TaskNode{Name: "t", Deadline: 5}}},
		{"task with zero deadline", &Graph{Name: "g", Root: &TaskNode{
			Name: "t", Configs: []Config{{Procs: 1, Duration: 1}}}}},
		{"config with zero procs", &Graph{Name: "g", Root: &TaskNode{
			Name: "t", Deadline: 5, Configs: []Config{{Procs: 0, Duration: 1}}}}},
		{"config assigns undeclared param", &Graph{Name: "g", Root: &TaskNode{
			Name: "t", Deadline: 5,
			Configs: []Config{{Assign: map[string]float64{"p": 1}, Procs: 1, Duration: 1}}}}},
		{"select without branches", &Graph{Name: "g", Root: &Select{Name: "s"}}},
		{"branch without when", &Graph{Name: "g", Root: &Select{Name: "s", Branches: []Branch{{
			Body: &TaskNode{Name: "t", Deadline: 5, Configs: []Config{{Procs: 1, Duration: 1}}}}}}}},
		{"branch without body", &Graph{Name: "g", Root: &Select{Name: "s", Branches: []Branch{{
			When: Lit(1)}}}}},
		{"loop without count", &Graph{Name: "g", Root: &Loop{Name: "l", Body: &TaskNode{
			Name: "t", Deadline: 5, Configs: []Config{{Procs: 1, Duration: 1}}}}}},
		{"loop without body", &Graph{Name: "g", Root: &Loop{Name: "l", Count: Lit(1)}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := junctionGraph().Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestGraphString(t *testing.T) {
	out := junctionGraph().String()
	for _, want := range []string{"junction-detection", "sampleImage", "select markRegion", "when", "finally", "computeJunctions"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
