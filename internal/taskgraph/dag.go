package taskgraph

import (
	"fmt"
	"strings"

	"milan/internal/core"
)

// Par is a parallel step group: all member steps execute concurrently
// (subject to resource availability) and the group joins before the next
// node.  With Par in a graph, enumerated execution paths are DAGs rather
// than chains — the paper's "an execution path (a chain, or more
// generally, a dag)".
type Par struct {
	Name     string
	Branches []Node
}

// enumerate implements Node for the chain view: a graph containing Par has
// no chain enumeration.
func (p *Par) enumerate([]*path, int) ([]*path, error) {
	return nil, fmt.Errorf("taskgraph: par %q requires DAG enumeration (use EnumerateDAGs)", p.Name)
}

func (p *Par) describe(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%spar %s\n", indent, p.Name)
	for _, br := range p.Branches {
		br.describe(b, indent+"  ")
	}
}

// dagPath is a partial DAG during enumeration: accumulated tasks with
// dependencies, the current frontier (tasks with no successors yet), and
// the parameter environment.
type dagPath struct {
	env      Env
	tasks    []core.DAGTask
	frontier []int
	quality  float64
}

func (p *dagPath) clone() *dagPath {
	return &dagPath{
		env:      p.env.clone(),
		tasks:    append([]core.DAGTask(nil), p.tasks...),
		frontier: append([]int(nil), p.frontier...),
		quality:  p.quality,
	}
}

// EnumerateDAGs lists every consistent execution path of the graph as a
// core.DAG (deadlines still relative to release).  For graphs without Par
// nodes the result is the set of linear DAGs equivalent to Enumerate's
// chains.
func (g *Graph) EnumerateDAGs(limit int) ([]core.DAG, []Env, error) {
	if limit <= 0 {
		limit = 256
	}
	if g.Root == nil {
		return nil, nil, fmt.Errorf("taskgraph: graph %q has no root", g.Name)
	}
	start := &dagPath{env: Env{}, quality: 1}
	for k, v := range g.Params {
		if !isNaN(v) {
			start.env[k] = v
		}
	}
	paths, err := enumerateDAG(g.Root, []*dagPath{start}, limit)
	if err != nil {
		return nil, nil, err
	}
	var dags []core.DAG
	var envs []Env
	for i, p := range paths {
		if len(p.tasks) == 0 {
			continue
		}
		dags = append(dags, core.DAG{
			Name:    fmt.Sprintf("%s/path%d", g.Name, i),
			Tasks:   p.tasks,
			Quality: p.quality,
		})
		envs = append(envs, p.env)
	}
	if len(dags) == 0 {
		return nil, nil, fmt.Errorf("taskgraph: graph %q has no consistent execution path", g.Name)
	}
	return dags, envs, nil
}

// DAGJob materializes the graph as a tunable DAG job released at `release`.
func (g *Graph) DAGJob(id int, release float64, limit int) (core.DAGJob, []Env, error) {
	dags, envs, err := g.EnumerateDAGs(limit)
	if err != nil {
		return core.DAGJob{}, nil, err
	}
	for di := range dags {
		for ti := range dags[di].Tasks {
			dags[di].Tasks[ti].Deadline += release
		}
	}
	job := core.DAGJob{ID: id, Name: g.Name, Release: release, Alts: dags}
	if err := job.Validate(); err != nil {
		return core.DAGJob{}, nil, fmt.Errorf("taskgraph: graph %q materializes invalid DAG job: %w", g.Name, err)
	}
	return job, envs, nil
}

// enumerateDAG walks the node producing DAG paths.
func enumerateDAG(n Node, in []*dagPath, limit int) ([]*dagPath, error) {
	switch v := n.(type) {
	case *TaskNode:
		return taskEnumDAG(v, in, limit)
	case Seq:
		cur := in
		var err error
		for _, c := range v {
			cur, err = enumerateDAG(c, cur, limit)
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	case *Select:
		var out []*dagPath
		for _, p := range in {
			for bi, br := range v.Branches {
				cond, err := br.When.Eval(p.env)
				if err != nil {
					return nil, fmt.Errorf("taskgraph: select %q branch %d when-expr: %w", v.Name, bi, err)
				}
				if cond == 0 {
					continue
				}
				sub, err := enumerateDAG(br.Body, []*dagPath{p.clone()}, limit)
				if err != nil {
					return nil, err
				}
				for _, sp := range sub {
					for _, as := range br.Finally {
						if err := as.apply(sp.env); err != nil {
							return nil, fmt.Errorf("taskgraph: select %q branch %d finally: %w", v.Name, bi, err)
						}
					}
					out = append(out, sp)
					if len(out) > limit {
						return nil, fmt.Errorf("%w: more than %d paths at select %q", errTooManyPaths, limit, v.Name)
					}
				}
			}
		}
		return out, nil
	case *Loop:
		var out []*dagPath
		for _, p := range in {
			cv, err := v.Count.Eval(p.env)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: loop %q count: %w", v.Name, err)
			}
			count := int(cv)
			if float64(count) != cv || count < 0 {
				return nil, fmt.Errorf("taskgraph: loop %q count %v is not a non-negative integer", v.Name, cv)
			}
			cur := []*dagPath{p.clone()}
			for i := 0; i < count; i++ {
				cur, err = enumerateDAG(v.Body, cur, limit)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, cur...)
			if len(out) > limit {
				return nil, fmt.Errorf("%w: more than %d paths at loop %q", errTooManyPaths, limit, v.Name)
			}
		}
		return out, nil
	case *Par:
		return parEnumDAG(v, in, limit)
	default:
		return nil, fmt.Errorf("taskgraph: unknown node type %T", n)
	}
}

// taskEnumDAG forks a path per admissible configuration, appending a task
// that depends on the path's frontier.
func taskEnumDAG(t *TaskNode, in []*dagPath, limit int) ([]*dagPath, error) {
	var out []*dagPath
	for _, p := range in {
		configs := t.Configs
		for _, r := range t.Ranges {
			expanded, err := r.expand(p.env)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: task %q: %w", t.Name, err)
			}
			configs = append(append([]Config(nil), configs...), expanded...)
		}
		for _, cfg := range configs {
			if !cfg.admissible(p.env) {
				continue
			}
			np := p.clone()
			for k, v := range cfg.Assign {
				np.env[k] = v
			}
			q := cfg.Quality
			if q == 0 {
				q = 1
			}
			np.quality *= q
			idx := len(np.tasks)
			np.tasks = append(np.tasks, core.DAGTask{
				Task: core.Task{
					Name:     t.Name,
					Procs:    cfg.Procs,
					Duration: cfg.Duration,
					Deadline: t.Deadline,
					Quality:  q,
				},
				Preds: append([]int(nil), np.frontier...),
			})
			np.frontier = []int{idx}
			out = append(out, np)
			if len(out) > limit {
				return nil, fmt.Errorf("%w: more than %d paths at task %q", errTooManyPaths, limit, t.Name)
			}
		}
	}
	return out, nil
}

// parEnumDAG runs every branch from the same frontier and joins: the
// group's combined frontier is the union of the branches' frontiers.
// Branch alternatives multiply (cartesian product).  Parameter
// environments thread through the branches in declaration order — control
// parameters are resolved at scheduling time, so a later branch's
// configuration guards may depend on an earlier branch's choices even
// though the tasks themselves execute concurrently.
func parEnumDAG(par *Par, in []*dagPath, limit int) ([]*dagPath, error) {
	if len(par.Branches) == 0 {
		return nil, fmt.Errorf("taskgraph: par %q has no branches", par.Name)
	}
	var out []*dagPath
	for _, p := range in {
		base := p.clone()
		combos := []*dagPath{base}
		entry := append([]int(nil), p.frontier...)
		var joined [][]int // per-combo accumulated exit frontiers
		joined = append(joined, nil)

		for _, br := range par.Branches {
			var nextCombos []*dagPath
			var nextJoined [][]int
			for ci, combo := range combos {
				// Each branch starts from the group's entry frontier but
				// builds on the combo's accumulated tasks.
				start := combo.clone()
				start.frontier = entry
				subs, err := enumerateDAG(br, []*dagPath{start}, limit)
				if err != nil {
					return nil, err
				}
				for _, sub := range subs {
					nc := sub.clone()
					nextJoined = append(nextJoined, append(append([]int(nil), joined[ci]...), sub.frontier...))
					nextCombos = append(nextCombos, nc)
					if len(nextCombos) > limit {
						return nil, fmt.Errorf("%w: more than %d paths at par %q", errTooManyPaths, limit, par.Name)
					}
				}
			}
			combos, joined = nextCombos, nextJoined
		}
		for ci, combo := range combos {
			combo.frontier = dedupInts(joined[ci])
			out = append(out, combo)
			if len(out) > limit {
				return nil, fmt.Errorf("%w: more than %d paths at par %q", errTooManyPaths, limit, par.Name)
			}
		}
	}
	return out, nil
}

func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func isNaN(f float64) bool { return f != f }
