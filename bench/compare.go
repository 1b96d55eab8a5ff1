package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkJSON is BENCHMARK.json, the contract the driver checks.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ratioTolerance is how far a ratio may fall between two results files, as
// an absolute difference.  BENCHMARK.json's bounds on the ratios are shares
// of the value, sized for the driver's runs with ten different seeds (the
// ratios vary with the seed by up to 2 %); between two files of one seed that
// would let a planner lose 4 % of its admissions unnoticed.
const ratioTolerance = 0.01

// placementRatios are functions of the seed alone wherever the decisions
// reach the plane in stream order, and are then compared exactly: speed
// bought with worse placement is a regression.
var placementRatios = map[string]bool{"admit_ratio": true, "utilization": true}

// allowance is how far a metric may sit on the worse side of a before it is
// worse: nothing for an exact ratio, ratioTolerance for any other ratio, and
// BENCHMARK.json's bound as a share of a for everything else.
func allowance(d metricDecl, exact bool, a float64) float64 {
	switch {
	case d.Unit != "ratio":
		return math.Abs(a) * d.Bound
	case exact:
		return 0
	}
	return ratioTolerance
}

// verdict judges one end-to-end metric of one workload: b against a, by the
// metric's direction and allowance.  Where either side's rounds spread wider
// than the allowance the pair cannot be told apart and is unresolved, not
// passed.
func verdict(d metricDecl, exact bool, a, b measure) string {
	allow := allowance(d, exact, a.Value)
	fall := b.Value - a.Value
	if d.Better == "higher" {
		fall = -fall
	}
	switch {
	case fall > allow:
		return "worse"
	case iqr(a.Rounds) > allow || iqr(b.Rounds) > allow:
		return "unresolved"
	}
	return "pass"
}

// compareFiles prints pass / worse / unresolved for every (end-to-end
// metric, workload) pair of two results files, then the per-layer values
// side by side, and returns 1 if anything got worse.
func compareFiles(benchPath, aPath, bPath string) (int, error) {
	var decl benchmarkJSON
	var a, b resultsFile
	for path, v := range map[string]any{benchPath: &decl, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return 2, err
		}
	}
	find := func(ms []measure, name string) (measure, bool) {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
		return measure{}, false
	}
	code := 0
	for _, wa := range a.Workloads {
		var wb *result
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return 2, fmt.Errorf("%s has no workload %s", bPath, wa.Name)
		}
		spec := findWorkload(wa.Name)
		if spec == nil {
			return 2, fmt.Errorf("%s: unknown workload %s", aPath, wa.Name)
		}
		fmt.Printf("%s\n", wa.Name)
		for _, d := range decl.EndToEnd {
			ma, okA := find(wa.EndToEnd, d.Name)
			mb, okB := find(wb.EndToEnd, d.Name)
			if !okA || !okB {
				return 2, fmt.Errorf("%s: metric %s missing from a results file", wa.Name, d.Name)
			}
			exact := placementRatios[d.Name] && spec.ordered() && a.Seed == b.Seed
			v := verdict(d, exact, ma, mb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("  %-10s %-26s %14.6g -> %-14.6g %-6s %+7.2f%% (%s is better, may get worse by %.4g, quartiles of the rounds %.4g and %.4g apart)\n",
				v, d.Name, ma.Value, mb.Value, d.Unit, (mb.Value/ma.Value-1)*100, d.Better, allowance(d, exact, ma.Value), iqr(ma.Rounds), iqr(mb.Rounds))
		}
		for _, d := range decl.PerLayer {
			ma, _ := find(wa.PerLayer, d.Name)
			mb, _ := find(wb.PerLayer, d.Name)
			fmt.Printf("  %-10s %-32s %14.6g -> %-14.6g %s\n", "layer", d.Name, ma.Value, mb.Value, d.Unit)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("  worse      failed operations: %d and %d\n", wa.Failed, wb.Failed)
			code = 1
		}
	}
	return code, nil
}
