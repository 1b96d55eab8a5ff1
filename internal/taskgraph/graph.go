// Package taskgraph represents tunable applications the way the QoS agent
// sees them (Section 3.1 of the paper): an OR task graph whose nodes are
// tasks with admissible configurations, selections among alternatives, and
// loops.  Enumerating the graph's consistent execution paths yields the
// task chains handed to the QoS arbitrator for admission control.
package taskgraph

import (
	"fmt"
	"math"
	"strings"

	"milan/internal/core"
)

// Config is one admissible configuration of a task: an assignment of values
// to the task's control parameters, the resource request it implies
// (processors for a duration — the paper's processor-time tuple), and the
// resulting output quality.
//
// A parameter in Assign that is already bound in the current environment
// acts as a guard: the configuration is admissible only if the values
// match.  This is how "only one of the computeJunctions configurations is
// allowed" based on earlier choices (Section 4.3).
type Config struct {
	Assign   map[string]float64
	Procs    int
	Duration float64
	Quality  float64
}

// Node is an element of the task graph.
type Node interface {
	// enumerate extends each partial path in `in` with this node's
	// alternatives, respecting the path limit.
	enumerate(in []*path, limit int) ([]*path, error)
	// describe renders the node for debugging/linting.
	describe(b *strings.Builder, indent string)
}

// TaskNode is a sequential or parallel step with a deadline (relative to
// job release), the control parameters it is configured by, and its
// admissible configurations.
type TaskNode struct {
	Name     string
	Deadline float64 // relative: the step and its predecessors finish within this much of release
	Params   []string
	Configs  []Config
	// Ranges are fine-continuous knobs (discretized), expanded into
	// configurations during enumeration with their symbolic resource
	// expressions evaluated under the path's parameter environment.
	Ranges []RangeSpec
}

// Seq runs nodes in order.
type Seq []Node

// Branch is one arm of a Select: taken when When is true; Finally runs
// after the arm's body, typically to set parameters consumed downstream.
type Branch struct {
	When    Expr
	Body    Node
	Finally []Assign
}

// Select models task_select: exactly the arms whose when-exprs hold under
// the current parameter environment are explorable alternatives.
type Select struct {
	Name     string
	Branches []Branch
}

// Loop models task_loop: the body repeats Count times (evaluated from the
// environment at entry).
type Loop struct {
	Name  string
	Count Expr
	Body  Node
}

// Graph is a complete tunable-application description.
type Graph struct {
	Name   string
	Params map[string]float64 // declared control parameters and initial values (NaN = uninitialized)
	Root   Node
}

// path is a partial execution path during enumeration.
type path struct {
	env     Env
	tasks   []core.Task
	quality float64
}

func (p *path) clone() *path {
	return &path{
		env:     p.env.clone(),
		tasks:   append([]core.Task(nil), p.tasks...),
		quality: p.quality,
	}
}

// errTooManyPaths is wrapped by Enumerate when the OR graph has more
// consistent paths than the caller's limit.
var errTooManyPaths = fmt.Errorf("taskgraph: path limit exceeded")

// Enumerate lists every consistent execution path of the graph as a
// core.Chain, with task deadlines still relative to job release.  Path
// quality is the product of task qualities ("obtained by composing the
// output qualities of each of the tasks").  limit bounds the number of
// paths explored (0 means 256).
func (g *Graph) Enumerate(limit int) ([]core.Chain, []Env, error) {
	if limit <= 0 {
		limit = 256
	}
	if g.Root == nil {
		return nil, nil, fmt.Errorf("taskgraph: graph %q has no root", g.Name)
	}
	start := &path{env: Env{}, quality: 1}
	for k, v := range g.Params {
		if !math.IsNaN(v) {
			start.env[k] = v
		}
	}
	paths, err := g.Root.enumerate([]*path{start}, limit)
	if err != nil {
		return nil, nil, err
	}
	var chains []core.Chain
	var envs []Env
	for i, p := range paths {
		if len(p.tasks) == 0 {
			continue // a path with no tasks cannot be scheduled
		}
		chains = append(chains, core.Chain{
			Name:    fmt.Sprintf("%s/path%d", g.Name, i),
			Tasks:   p.tasks,
			Quality: p.quality,
		})
		envs = append(envs, p.env)
	}
	if len(chains) == 0 {
		return nil, nil, fmt.Errorf("taskgraph: graph %q has no consistent execution path", g.Name)
	}
	return chains, envs, nil
}

// Job materializes the graph into an admissible job released at `release`:
// relative deadlines become absolute and each enumerated path becomes one
// chain of the (tunable) job.
func (g *Graph) Job(id int, release float64, limit int) (core.Job, []Env, error) {
	chains, envs, err := g.Enumerate(limit)
	if err != nil {
		return core.Job{}, nil, err
	}
	for ci := range chains {
		for ti := range chains[ci].Tasks {
			chains[ci].Tasks[ti].Deadline += release
		}
	}
	job := core.Job{ID: id, Name: g.Name, Release: release, Chains: chains}
	if err := job.Validate(); err != nil {
		return core.Job{}, nil, fmt.Errorf("taskgraph: graph %q materializes invalid job: %w", g.Name, err)
	}
	return job, envs, nil
}

// Validate checks the graph's static structure.
func (g *Graph) Validate() error {
	if g.Root == nil {
		return fmt.Errorf("taskgraph: graph %q has no root", g.Name)
	}
	return validateNode(g.Root)
}

func validateNode(n Node) error {
	switch v := n.(type) {
	case *TaskNode:
		if len(v.Configs) == 0 && len(v.Ranges) == 0 {
			return fmt.Errorf("taskgraph: task %q has no configurations", v.Name)
		}
		if v.Deadline <= 0 {
			return fmt.Errorf("taskgraph: task %q has non-positive deadline %v", v.Name, v.Deadline)
		}
		for i, c := range v.Configs {
			if c.Procs < 1 || c.Duration <= 0 {
				return fmt.Errorf("taskgraph: task %q config %d: bad resource request (%d procs, %v time)",
					v.Name, i, c.Procs, c.Duration)
			}
			for name := range c.Assign {
				if !contains(v.Params, name) {
					return fmt.Errorf("taskgraph: task %q config %d assigns undeclared parameter %q",
						v.Name, i, name)
				}
			}
		}
		for i, r := range v.Ranges {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("taskgraph: task %q range %d: %w", v.Name, i, err)
			}
			if !contains(v.Params, r.Param) {
				return fmt.Errorf("taskgraph: task %q range %d sweeps undeclared parameter %q",
					v.Name, i, r.Param)
			}
		}
	case Seq:
		for _, c := range v {
			if err := validateNode(c); err != nil {
				return err
			}
		}
	case *Select:
		if len(v.Branches) == 0 {
			return fmt.Errorf("taskgraph: select %q has no branches", v.Name)
		}
		for i, br := range v.Branches {
			if br.When == nil {
				return fmt.Errorf("taskgraph: select %q branch %d has no when-expr", v.Name, i)
			}
			if br.Body == nil {
				return fmt.Errorf("taskgraph: select %q branch %d has no body", v.Name, i)
			}
			if err := validateNode(br.Body); err != nil {
				return err
			}
		}
	case *Loop:
		if v.Count == nil {
			return fmt.Errorf("taskgraph: loop %q has no count", v.Name)
		}
		if v.Body == nil {
			return fmt.Errorf("taskgraph: loop %q has no body", v.Name)
		}
		return validateNode(v.Body)
	case *Par:
		if len(v.Branches) == 0 {
			return fmt.Errorf("taskgraph: par %q has no branches", v.Name)
		}
		for _, br := range v.Branches {
			if err := validateNode(br); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("taskgraph: unknown node type %T", n)
	}
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// enumerate for TaskNode: each admissible configuration — static or
// expanded from a fine-continuous range — forks the path.
func (t *TaskNode) enumerate(in []*path, limit int) ([]*path, error) {
	var out []*path
	for _, p := range in {
		configs := t.Configs
		for _, r := range t.Ranges {
			expanded, err := r.expand(p.env)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: task %q: %w", t.Name, err)
			}
			configs = append(append([]Config(nil), configs...), expanded...)
		}
		admitted := 0
		for _, cfg := range configs {
			if !cfg.admissible(p.env) {
				continue
			}
			admitted++
			np := p.clone()
			for k, v := range cfg.Assign {
				np.env[k] = v
			}
			q := cfg.Quality
			if q == 0 {
				q = 1 // unspecified quality does not degrade the path
			}
			np.quality *= q
			np.tasks = append(np.tasks, core.Task{
				Name:     t.Name,
				Procs:    cfg.Procs,
				Duration: cfg.Duration,
				Deadline: t.Deadline,
				Quality:  q,
			})
			out = append(out, np)
			if len(out) > limit {
				return nil, fmt.Errorf("%w: more than %d paths at task %q", errTooManyPaths, limit, t.Name)
			}
		}
		if admitted == 0 {
			// This prefix dies here: no configuration is consistent with
			// the parameters chosen so far.  That is legal as long as some
			// other prefix survives; Enumerate reports an error if none do.
			continue
		}
	}
	return out, nil
}

// admissible reports whether the configuration's assignments agree with the
// parameters already bound in env.
func (c Config) admissible(env Env) bool {
	for k, v := range c.Assign {
		if bound, ok := env[k]; ok && bound != v {
			return false
		}
	}
	return true
}

func (s Seq) enumerate(in []*path, limit int) ([]*path, error) {
	cur := in
	var err error
	for _, n := range s {
		cur, err = n.enumerate(cur, limit)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (s *Select) enumerate(in []*path, limit int) ([]*path, error) {
	var out []*path
	for _, p := range in {
		for bi, br := range s.Branches {
			v, err := br.When.Eval(p.env)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: select %q branch %d when-expr: %w", s.Name, bi, err)
			}
			if v == 0 {
				continue
			}
			sub, err := br.Body.enumerate([]*path{p.clone()}, limit)
			if err != nil {
				return nil, err
			}
			for _, sp := range sub {
				for _, as := range br.Finally {
					if err := as.apply(sp.env); err != nil {
						return nil, fmt.Errorf("taskgraph: select %q branch %d finally: %w", s.Name, bi, err)
					}
				}
				out = append(out, sp)
				if len(out) > limit {
					return nil, fmt.Errorf("%w: more than %d paths at select %q", errTooManyPaths, limit, s.Name)
				}
			}
		}
		// A prefix with no live branch simply dies, like a task whose
		// config set is inconsistent with the parameters chosen so far.
	}
	return out, nil
}

func (l *Loop) enumerate(in []*path, limit int) ([]*path, error) {
	var out []*path
	for _, p := range in {
		cv, err := l.Count.Eval(p.env)
		if err != nil {
			return nil, fmt.Errorf("taskgraph: loop %q count: %w", l.Name, err)
		}
		n := int(cv)
		if float64(n) != cv || n < 0 {
			return nil, fmt.Errorf("taskgraph: loop %q count %v is not a non-negative integer", l.Name, cv)
		}
		cur := []*path{p.clone()}
		for i := 0; i < n; i++ {
			cur, err = l.Body.enumerate(cur, limit)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, cur...)
		if len(out) > limit {
			return nil, fmt.Errorf("%w: more than %d paths at loop %q", errTooManyPaths, limit, l.Name)
		}
	}
	return out, nil
}

// String renders the graph structure for tunelint and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s\n", g.Name)
	if len(g.Params) > 0 {
		b.WriteString("  params:")
		for k, v := range g.Params {
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %s", k)
			} else {
				fmt.Fprintf(&b, " %s=%g", k, v)
			}
		}
		b.WriteString("\n")
	}
	if g.Root != nil {
		g.Root.describe(&b, "  ")
	}
	return b.String()
}

func (t *TaskNode) describe(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%stask %s deadline=%g params=%v configs=%d ranges=%d\n",
		indent, t.Name, t.Deadline, t.Params, len(t.Configs), len(t.Ranges))
	for _, c := range t.Configs {
		fmt.Fprintf(b, "%s  config %v -> %d procs x %g time, quality %g\n",
			indent, c.Assign, c.Procs, c.Duration, c.Quality)
	}
	for _, r := range t.Ranges {
		q := "1"
		if r.Quality != nil {
			q = r.Quality.String()
		}
		fmt.Fprintf(b, "%s  config range %s = %g .. %g step %g -> %s procs x %s time, quality %s\n",
			indent, r.Param, r.Lo, r.Hi, r.Step, r.Procs, r.Duration, q)
	}
}

func (s Seq) describe(b *strings.Builder, indent string) {
	for _, n := range s {
		n.describe(b, indent)
	}
}

func (s *Select) describe(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sselect %s\n", indent, s.Name)
	for _, br := range s.Branches {
		fmt.Fprintf(b, "%s  when %s:\n", indent, br.When)
		br.Body.describe(b, indent+"    ")
		if len(br.Finally) > 0 {
			fmt.Fprintf(b, "%s  finally { %s }\n", indent, joinAssigns(br.Finally))
		}
	}
}

func (l *Loop) describe(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sloop %s x %s\n", indent, l.Name, l.Count)
	l.Body.describe(b, indent+"  ")
}
