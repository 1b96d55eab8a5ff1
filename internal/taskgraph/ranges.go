package taskgraph

import (
	"fmt"
	"math"
)

// RangeSpec is fine-continuous tunability (Section 4.1's third model): a
// control parameter sweeps a continuous interval — discretized at Step —
// and the task's resource request and quality are symbolic expressions of
// it, evaluated at scheduling time.  The paper's preprocessor leaves this
// out ("supporting fine-continuous tunability requires the preprocessor to
// handle symbolic expressions for resource requirements and deadlines");
// this implements it.
//
// The expressions may also reference previously bound control parameters,
// so a knob can depend on upstream configuration choices.
type RangeSpec struct {
	Param        string
	Lo, Hi, Step float64
	Procs        Expr // must evaluate to a positive integer
	Duration     Expr // must evaluate to a positive number
	Quality      Expr // optional; nil means quality 1
}

// Validate checks the spec's static structure.
func (r RangeSpec) Validate() error {
	if r.Param == "" {
		return fmt.Errorf("taskgraph: range config needs a parameter")
	}
	if !(r.Step > 0) {
		return fmt.Errorf("taskgraph: range %s: step %v must be positive", r.Param, r.Step)
	}
	if r.Hi < r.Lo {
		return fmt.Errorf("taskgraph: range %s: empty interval [%v, %v]", r.Param, r.Lo, r.Hi)
	}
	if n := (r.Hi - r.Lo) / r.Step; n > 4096 {
		return fmt.Errorf("taskgraph: range %s: %v values (cap 4096); coarsen the step", r.Param, math.Floor(n)+1)
	}
	if r.Procs == nil || r.Duration == nil {
		return fmt.Errorf("taskgraph: range %s: needs procs and duration expressions", r.Param)
	}
	return nil
}

// values returns the discretized knob settings; if the parameter is
// already bound in env, only the bound value (when inside the interval)
// remains admissible.
func (r RangeSpec) values(env Env) []float64 {
	if bound, ok := env[r.Param]; ok {
		if bound >= r.Lo-1e-9 && bound <= r.Hi+1e-9 {
			return []float64{bound}
		}
		return nil
	}
	var out []float64
	for v := r.Lo; v <= r.Hi+1e-9; v += r.Step {
		out = append(out, v)
	}
	return out
}

// instantiate evaluates the spec at one knob value under env.
func (r RangeSpec) instantiate(env Env, v float64) (Config, error) {
	scoped := env.clone()
	scoped[r.Param] = v
	procsF, err := r.Procs.Eval(scoped)
	if err != nil {
		return Config{}, fmt.Errorf("taskgraph: range %s=%v procs: %w", r.Param, v, err)
	}
	procs := math.Round(procsF)
	if procs < 1 || math.Abs(procs-procsF) > 1e-6 {
		return Config{}, fmt.Errorf("taskgraph: range %s=%v: procs expression yields %v, need a positive integer",
			r.Param, v, procsF)
	}
	dur, err := r.Duration.Eval(scoped)
	if err != nil {
		return Config{}, fmt.Errorf("taskgraph: range %s=%v duration: %w", r.Param, v, err)
	}
	if dur <= 0 {
		return Config{}, fmt.Errorf("taskgraph: range %s=%v: duration %v must be positive", r.Param, v, dur)
	}
	quality := 1.0
	if r.Quality != nil {
		quality, err = r.Quality.Eval(scoped)
		if err != nil {
			return Config{}, fmt.Errorf("taskgraph: range %s=%v quality: %w", r.Param, v, err)
		}
		if quality <= 0 {
			return Config{}, fmt.Errorf("taskgraph: range %s=%v: quality %v must be positive", r.Param, v, quality)
		}
	}
	return Config{
		Assign:   map[string]float64{r.Param: v},
		Procs:    int(procs),
		Duration: dur,
		Quality:  quality,
	}, nil
}

// expand produces the admissible configurations of the spec under env.
func (r RangeSpec) expand(env Env) ([]Config, error) {
	var out []Config
	for _, v := range r.values(env) {
		cfg, err := r.instantiate(env, v)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}
