package junction

import (
	"fmt"
	"math"

	"milan/internal/calypso"
	"milan/internal/taskgraph"
)

// pixelsPerUnit converts measured work (pixels examined per processor) into
// abstract schedule time units when building the QoS task graph from
// profiles.
const pixelsPerUnit = 2000.0

// ProfiledConfig is the measured resource profile and quality of one
// application configuration, obtained by a profiling run on a training
// image (the paper assumes profiles "obtained by profiling on a training
// set of representative images").
type ProfiledConfig struct {
	Params  Params
	Result  *Result
	Quality float64 // measured F1 on the training image
}

// stepDuration converts a step's measured work into schedule time for its
// processor allocation.
func stepDuration(cost StepCost) float64 {
	procs := cost.Width
	if procs < 1 {
		procs = 1
	}
	d := float64(cost.Work) / (pixelsPerUnit * float64(procs))
	if d < 0.1 {
		d = 0.1 // every step costs at least a schedulable quantum
	}
	return math.Round(d*100) / 100
}

// profileConfig runs one configuration on the training image and returns
// its measured profile.
func profileConfig(workers int, im *Image, truth []Point, p Params, radius float64) (ProfiledConfig, error) {
	rt, err := calypso.New(calypso.Config{Workers: workers})
	if err != nil {
		return ProfiledConfig{}, err
	}
	res, err := RunScored(rt, im, p, truth, radius)
	if err != nil {
		return ProfiledConfig{}, err
	}
	return ProfiledConfig{Params: p, Result: res, Quality: res.Quality.F1}, nil
}

// BuildGraph profiles the fine and coarse configurations and assembles the
// paper's Figure-3 task graph: sampleImage tunable over the granularity,
// markRegion selecting on it (and setting c), computeJunctions gated on c.
// deadlineSlack scales the cumulative step durations into task deadlines
// (relative to release).
func BuildGraph(workers int, im *Image, truth []Point, fine, coarse Params, radius, deadlineSlack float64) (*taskgraph.Graph, [2]ProfiledConfig, error) {
	var profs [2]ProfiledConfig
	var err error
	if profs[0], err = profileConfig(workers, im, truth, fine, radius); err != nil {
		return nil, profs, fmt.Errorf("junction: profiling fine config: %w", err)
	}
	if profs[1], err = profileConfig(workers, im, truth, coarse, radius); err != nil {
		return nil, profs, fmt.Errorf("junction: profiling coarse config: %w", err)
	}
	if deadlineSlack < 1 {
		deadlineSlack = 1
	}

	dur := func(pc ProfiledConfig, step int) float64 { return stepDuration(pc.Result.Costs[step]) }
	procs := func(pc ProfiledConfig, step int) int {
		w := pc.Result.Costs[step].Width
		if w < 1 {
			w = 1
		}
		return w
	}
	// Per-step deadlines from the slower configuration's cumulative time,
	// scaled by the slack factor.
	cum1 := math.Max(dur(profs[0], 0), dur(profs[1], 0))
	cum2 := cum1 + math.Max(dur(profs[0], 1), dur(profs[1], 1))
	cum3 := cum2 + math.Max(dur(profs[0], 2), dur(profs[1], 2))

	gFine := float64(fine.Granularity)
	gCoarse := float64(coarse.Granularity)

	graph := &taskgraph.Graph{
		Name: "junction-detection",
		Params: map[string]float64{
			"sampleGranularity": math.NaN(),
			"searchDistance":    math.NaN(),
			"c":                 math.NaN(),
		},
		Root: taskgraph.Seq{
			&taskgraph.TaskNode{
				Name:     "sampleImage",
				Deadline: cum1 * deadlineSlack,
				Params:   []string{"sampleGranularity"},
				Configs: []taskgraph.Config{
					{
						Assign:   map[string]float64{"sampleGranularity": gFine},
						Procs:    procs(profs[0], 0),
						Duration: dur(profs[0], 0),
						Quality:  1,
					},
					{
						Assign:   map[string]float64{"sampleGranularity": gCoarse},
						Procs:    procs(profs[1], 0),
						Duration: dur(profs[1], 0),
						Quality:  1,
					},
				},
			},
			&taskgraph.Select{
				Name: "markRegion",
				Branches: []taskgraph.Branch{
					{
						When: taskgraph.Binary{Op: taskgraph.OpEq, L: taskgraph.Ref("sampleGranularity"), R: taskgraph.Lit(gFine)},
						Body: &taskgraph.TaskNode{
							Name:     "markRegionFine",
							Deadline: cum2 * deadlineSlack,
							Params:   []string{"searchDistance"},
							Configs: []taskgraph.Config{{
								Assign:   map[string]float64{"searchDistance": fine.SearchDistance},
								Procs:    procs(profs[0], 1),
								Duration: dur(profs[0], 1),
								Quality:  1,
							}},
						},
						Finally: []taskgraph.Assign{{Param: "c", Value: taskgraph.Lit(1)}},
					},
					{
						When: taskgraph.Binary{Op: taskgraph.OpEq, L: taskgraph.Ref("sampleGranularity"), R: taskgraph.Lit(gCoarse)},
						Body: &taskgraph.TaskNode{
							Name:     "markRegionCoarse",
							Deadline: cum2 * deadlineSlack,
							Params:   []string{"searchDistance"},
							Configs: []taskgraph.Config{{
								Assign:   map[string]float64{"searchDistance": coarse.SearchDistance},
								Procs:    procs(profs[1], 1),
								Duration: dur(profs[1], 1),
								Quality:  1,
							}},
						},
						Finally: []taskgraph.Assign{{Param: "c", Value: taskgraph.Lit(2)}},
					},
				},
			},
			&taskgraph.TaskNode{
				Name:     "computeJunctions",
				Deadline: cum3 * deadlineSlack,
				Params:   []string{"c"},
				Configs: []taskgraph.Config{
					{
						Assign:   map[string]float64{"c": 1},
						Procs:    procs(profs[0], 2),
						Duration: dur(profs[0], 2),
						Quality:  profs[0].Quality,
					},
					{
						Assign:   map[string]float64{"c": 2},
						Procs:    procs(profs[1], 2),
						Duration: dur(profs[1], 2),
						Quality:  profs[1].Quality,
					},
				},
			},
		},
	}
	if err := graph.Validate(); err != nil {
		return nil, profs, fmt.Errorf("junction: built invalid graph: %w", err)
	}
	return graph, profs, nil
}

// ParamsForEnv reconstructs application parameters from a granted path's
// control-parameter environment (the QoS agent "configures the application"
// with these values).  base supplies the non-tunable thresholds.
func ParamsForEnv(env taskgraph.Env, fine, coarse Params) (Params, error) {
	g, ok := env["sampleGranularity"]
	if !ok {
		return Params{}, fmt.Errorf("junction: grant env missing sampleGranularity")
	}
	switch int(g) {
	case fine.Granularity:
		return fine, nil
	case coarse.Granularity:
		return coarse, nil
	default:
		return Params{}, fmt.Errorf("junction: grant granularity %v matches neither configuration", g)
	}
}
