package tunelang

import (
	"fmt"
	"math"

	"milan/internal/taskgraph"
)

// Parse compiles tunability-language source into a task graph.  name
// becomes the graph name (typically the application or file name).
func Parse(name, src string) (*taskgraph.Graph, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	g, err := p.program(name)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(tk token, format string, args ...interface{}) *syntaxError {
	return &syntaxError{Line: tk.line, Col: tk.col, Msg: fmt.Sprintf(format, args...)}
}

// expectPunct consumes the given punctuation or fails.
func (p *parser) expectPunct(text string) error {
	tk := p.cur()
	if tk.kind != tokPunct || tk.text != text {
		return p.errorf(tk, "expected %q, found %s", text, tk)
	}
	p.advance()
	return nil
}

// expectKeyword consumes the given identifier-keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	tk := p.cur()
	if tk.kind != tokIdent || tk.text != kw {
		return p.errorf(tk, "expected %q, found %s", kw, tk)
	}
	p.advance()
	return nil
}

// atKeyword reports whether the current token is the identifier kw.
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}

func (p *parser) expectIdent() (string, error) {
	tk := p.cur()
	if tk.kind != tokIdent {
		return "", p.errorf(tk, "expected identifier, found %s", tk)
	}
	if isReserved(tk.text) {
		return "", p.errorf(tk, "%q is a reserved word", tk.text)
	}
	p.advance()
	return tk.text, nil
}

func (p *parser) expectNumber() (float64, error) {
	neg := false
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		neg = true
		p.advance()
	}
	tk := p.cur()
	if tk.kind != tokNumber {
		return 0, p.errorf(tk, "expected number, found %s", tk)
	}
	p.advance()
	if neg {
		return -tk.num, nil
	}
	return tk.num, nil
}

var reserved = map[string]bool{
	"task": true, "task_select": true, "task_loop": true,
	"task_control_parameters": true, "when": true, "finally": true,
	"config": true, "require": true, "procs": true, "time": true,
	"quality": true, "deadline": true, "params": true, "range": true,
	"task_par": true,
}

func isReserved(s string) bool { return reserved[s] }

// program = { params | step } .
func (p *parser) program(name string) (*taskgraph.Graph, error) {
	g := &taskgraph.Graph{Name: name, Params: map[string]float64{}}
	var seq taskgraph.Seq
	for p.cur().kind != tokEOF {
		switch {
		case p.atKeyword("task_control_parameters"):
			if err := p.paramsBlock(g); err != nil {
				return nil, err
			}
		default:
			n, err := p.step(g)
			if err != nil {
				return nil, err
			}
			seq = append(seq, n)
		}
	}
	if len(seq) == 0 {
		return nil, p.errorf(p.cur(), "program has no steps")
	}
	g.Root = seq
	return g, nil
}

// paramsBlock = "task_control_parameters" "{" { ident [ "=" number ] ";" } "}" .
func (p *parser) paramsBlock(g *taskgraph.Graph) error {
	p.advance() // task_control_parameters
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.at("}") {
		tk := p.cur()
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, dup := g.Params[name]; dup {
			return p.errorf(tk, "parameter %q declared twice", name)
		}
		val := math.NaN()
		if p.at("=") {
			p.advance()
			val, err = p.expectNumber()
			if err != nil {
				return err
			}
		}
		g.Params[name] = val
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.expectPunct("}")
}

// at reports whether the current token is the given punctuation.
func (p *parser) at(text string) bool {
	return p.cur().kind == tokPunct && p.cur().text == text
}

// step = task | select | loop .
func (p *parser) step(g *taskgraph.Graph) (taskgraph.Node, error) {
	switch {
	case p.atKeyword("task"):
		return p.task(g)
	case p.atKeyword("task_select"):
		return p.selectStep(g)
	case p.atKeyword("task_loop"):
		return p.loopStep(g)
	case p.atKeyword("task_par"):
		return p.parStep(g)
	default:
		return nil, p.errorf(p.cur(), "expected task, task_select, task_loop or task_par, found %s", p.cur())
	}
}

// parStep = "task_par" [ ident ] "{" { step } "}" — each member step is a
// concurrent branch; the group joins before the next step.
func (p *parser) parStep(g *taskgraph.Graph) (taskgraph.Node, error) {
	p.advance() // task_par
	par := &taskgraph.Par{}
	if p.cur().kind == tokIdent {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		par.Name = name
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.at("}") {
		n, err := p.step(g)
		if err != nil {
			return nil, err
		}
		par.Branches = append(par.Branches, n)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if len(par.Branches) < 2 {
		return nil, p.errorf(p.cur(), "task_par %q needs at least two concurrent branches", par.Name)
	}
	return par, nil
}

// task = "task" ident "deadline" number [ "params" "(" idents ")" ] "{" { config } "}" .
func (p *parser) task(g *taskgraph.Graph) (taskgraph.Node, error) {
	p.advance() // task
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("deadline"); err != nil {
		return nil, err
	}
	deadline, err := p.expectNumber()
	if err != nil {
		return nil, err
	}
	node := &taskgraph.TaskNode{Name: name, Deadline: deadline}
	if p.atKeyword("params") {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			tk := p.cur()
			param, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, ok := g.Params[param]; !ok {
				return nil, p.errorf(tk, "task %q uses undeclared control parameter %q", name, param)
			}
			node.Params = append(node.Params, param)
			if p.at(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for p.atKeyword("config") {
		cfg, err := p.config(g, node)
		if err == errRangeConfig {
			continue // attached to node.Ranges
		}
		if err != nil {
			return nil, err
		}
		node.Configs = append(node.Configs, cfg)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if len(node.Configs) == 0 && len(node.Ranges) == 0 {
		return nil, p.errorf(p.cur(), "task %q has no configurations", name)
	}
	return node, nil
}

// config = "config" [ "(" assigns ")" ] "require" number "procs" number "time"
//
//	[ "quality" number ] ";" .
func (p *parser) config(g *taskgraph.Graph, node *taskgraph.TaskNode) (taskgraph.Config, error) {
	p.advance() // config
	cfg := taskgraph.Config{Assign: map[string]float64{}}
	if p.atKeyword("range") {
		return cfg, p.rangeConfig(g, node)
	}
	if p.at("(") {
		p.advance()
		for {
			tk := p.cur()
			param, err := p.expectIdent()
			if err != nil {
				return cfg, err
			}
			if !stringsContain(node.Params, param) {
				return cfg, p.errorf(tk, "config assigns %q, not in task %q's parameter list", param, node.Name)
			}
			if err := p.expectPunct("="); err != nil {
				return cfg, err
			}
			val, err := p.expectNumber()
			if err != nil {
				return cfg, err
			}
			if _, dup := cfg.Assign[param]; dup {
				return cfg, p.errorf(tk, "config assigns %q twice", param)
			}
			cfg.Assign[param] = val
			if p.at(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return cfg, err
		}
	}
	if err := p.expectKeyword("require"); err != nil {
		return cfg, err
	}
	procs, err := p.expectNumber()
	if err != nil {
		return cfg, err
	}
	if procs != math.Trunc(procs) || procs < 1 {
		return cfg, p.errorf(p.cur(), "processor count %v must be a positive integer", procs)
	}
	cfg.Procs = int(procs)
	if err := p.expectKeyword("procs"); err != nil {
		return cfg, err
	}
	cfg.Duration, err = p.expectNumber()
	if err != nil {
		return cfg, err
	}
	if err := p.expectKeyword("time"); err != nil {
		return cfg, err
	}
	if p.atKeyword("quality") {
		p.advance()
		cfg.Quality, err = p.expectNumber()
		if err != nil {
			return cfg, err
		}
	}
	return cfg, p.expectPunct(";")
}

// errRangeConfig is a sentinel: a range config was parsed and attached to
// the node directly (it has no single static Config to return).
var errRangeConfig = &syntaxError{Msg: "internal: range config parsed"}

// rangeConfig parses a fine-continuous configuration and appends it to the
// node's Ranges, returning errRangeConfig so the caller knows no static
// config was produced.
func (p *parser) rangeConfig(g *taskgraph.Graph, node *taskgraph.TaskNode) error {
	p.advance() // range
	if err := p.expectPunct("("); err != nil {
		return err
	}
	tk := p.cur()
	param, err := p.expectIdent()
	if err != nil {
		return err
	}
	if !stringsContain(node.Params, param) {
		return p.errorf(tk, "range sweeps %q, not in task %q's parameter list", param, node.Name)
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	spec := taskgraph.RangeSpec{Param: param}
	if spec.Lo, err = p.expectNumber(); err != nil {
		return err
	}
	if err := p.expectPunct(".."); err != nil {
		return err
	}
	if spec.Hi, err = p.expectNumber(); err != nil {
		return err
	}
	if err := p.expectKeyword("step"); err != nil {
		return err
	}
	if spec.Step, err = p.expectNumber(); err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.expectKeyword("require"); err != nil {
		return err
	}
	if spec.Procs, err = p.expr(g); err != nil {
		return err
	}
	if err := p.expectKeyword("procs"); err != nil {
		return err
	}
	if spec.Duration, err = p.expr(g); err != nil {
		return err
	}
	if err := p.expectKeyword("time"); err != nil {
		return err
	}
	if p.atKeyword("quality") {
		p.advance()
		if spec.Quality, err = p.expr(g); err != nil {
			return err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return p.errorf(tk, "%v", err)
	}
	node.Ranges = append(node.Ranges, spec)
	return errRangeConfig
}

// selectStep = "task_select" [ ident ] "{" { arm } "}" .
func (p *parser) selectStep(g *taskgraph.Graph) (taskgraph.Node, error) {
	p.advance() // task_select
	sel := &taskgraph.Select{}
	if p.cur().kind == tokIdent && !p.atKeyword("when") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.Name = name
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for p.atKeyword("when") {
		br, err := p.arm(g)
		if err != nil {
			return nil, err
		}
		sel.Branches = append(sel.Branches, br)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if len(sel.Branches) == 0 {
		return nil, p.errorf(p.cur(), "task_select %q has no when-arms", sel.Name)
	}
	return sel, nil
}

// arm = "when" "(" expr ")" "{" { step } "}" [ "finally" "{" { assign ";" } "}" ] .
func (p *parser) arm(g *taskgraph.Graph) (taskgraph.Branch, error) {
	p.advance() // when
	var br taskgraph.Branch
	if err := p.expectPunct("("); err != nil {
		return br, err
	}
	cond, err := p.expr(g)
	if err != nil {
		return br, err
	}
	br.When = cond
	if err := p.expectPunct(")"); err != nil {
		return br, err
	}
	if err := p.expectPunct("{"); err != nil {
		return br, err
	}
	var body taskgraph.Seq
	for !p.at("}") {
		n, err := p.step(g)
		if err != nil {
			return br, err
		}
		body = append(body, n)
	}
	if err := p.expectPunct("}"); err != nil {
		return br, err
	}
	if len(body) == 0 {
		return br, p.errorf(p.cur(), "when-arm has an empty body")
	}
	br.Body = body
	if p.atKeyword("finally") {
		p.advance()
		if err := p.expectPunct("{"); err != nil {
			return br, err
		}
		for !p.at("}") {
			tk := p.cur()
			param, err := p.expectIdent()
			if err != nil {
				return br, err
			}
			if _, ok := g.Params[param]; !ok {
				return br, p.errorf(tk, "finally assigns undeclared control parameter %q", param)
			}
			if err := p.expectPunct("="); err != nil {
				return br, err
			}
			val, err := p.expr(g)
			if err != nil {
				return br, err
			}
			br.Finally = append(br.Finally, taskgraph.Assign{Param: param, Value: val})
			if err := p.expectPunct(";"); err != nil {
				return br, err
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return br, err
		}
	}
	return br, nil
}

// loopStep = "task_loop" [ ident ] "(" expr ")" "{" { step } "}" .
func (p *parser) loopStep(g *taskgraph.Graph) (taskgraph.Node, error) {
	p.advance() // task_loop
	loop := &taskgraph.Loop{}
	if p.cur().kind == tokIdent {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		loop.Name = name
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	count, err := p.expr(g)
	if err != nil {
		return nil, err
	}
	loop.Count = count
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var body taskgraph.Seq
	for !p.at("}") {
		n, err := p.step(g)
		if err != nil {
			return nil, err
		}
		body = append(body, n)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, p.errorf(p.cur(), "task_loop %q has an empty body", loop.Name)
	}
	loop.Body = body
	return loop, nil
}

// Expression parsing: precedence climbing.
//
//	expr   = orExpr .
//	orExpr = andExpr { "||" andExpr } .
//	andExpr = cmpExpr { "&&" cmpExpr } .
//	cmpExpr = addExpr [ ("=="|"!="|"<"|"<="|">"|">=") addExpr ] .
//	addExpr = mulExpr { ("+"|"-") mulExpr } .
//	mulExpr = unary { ("*"|"/") unary } .
//	unary  = [ "!" | "-" ] primary .
//	primary = number | ident | "(" expr ")" .
func (p *parser) expr(g *taskgraph.Graph) (taskgraph.Expr, error) { return p.orExpr(g) }

func (p *parser) orExpr(g *taskgraph.Graph) (taskgraph.Expr, error) {
	l, err := p.andExpr(g)
	if err != nil {
		return nil, err
	}
	for p.at("||") {
		p.advance()
		r, err := p.andExpr(g)
		if err != nil {
			return nil, err
		}
		l = taskgraph.Binary{Op: taskgraph.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr(g *taskgraph.Graph) (taskgraph.Expr, error) {
	l, err := p.cmpExpr(g)
	if err != nil {
		return nil, err
	}
	for p.at("&&") {
		p.advance()
		r, err := p.cmpExpr(g)
		if err != nil {
			return nil, err
		}
		l = taskgraph.Binary{Op: taskgraph.OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]taskgraph.Op{
	"==": taskgraph.OpEq, "!=": taskgraph.OpNe,
	"<": taskgraph.OpLt, "<=": taskgraph.OpLe,
	">": taskgraph.OpGt, ">=": taskgraph.OpGe,
}

func (p *parser) cmpExpr(g *taskgraph.Graph) (taskgraph.Expr, error) {
	l, err := p.addExpr(g)
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.advance()
			r, err := p.addExpr(g)
			if err != nil {
				return nil, err
			}
			return taskgraph.Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr(g *taskgraph.Graph) (taskgraph.Expr, error) {
	l, err := p.mulExpr(g)
	if err != nil {
		return nil, err
	}
	for p.at("+") || p.at("-") {
		op := taskgraph.OpAdd
		if p.cur().text == "-" {
			op = taskgraph.OpSub
		}
		p.advance()
		r, err := p.mulExpr(g)
		if err != nil {
			return nil, err
		}
		l = taskgraph.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr(g *taskgraph.Graph) (taskgraph.Expr, error) {
	l, err := p.unary(g)
	if err != nil {
		return nil, err
	}
	for p.at("*") || p.at("/") {
		op := taskgraph.OpMul
		if p.cur().text == "/" {
			op = taskgraph.OpDiv
		}
		p.advance()
		r, err := p.unary(g)
		if err != nil {
			return nil, err
		}
		l = taskgraph.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary(g *taskgraph.Graph) (taskgraph.Expr, error) {
	if p.at("!") {
		p.advance()
		x, err := p.unary(g)
		if err != nil {
			return nil, err
		}
		return taskgraph.Not{X: x}, nil
	}
	if p.at("-") {
		p.advance()
		x, err := p.unary(g)
		if err != nil {
			return nil, err
		}
		return taskgraph.Neg{X: x}, nil
	}
	return p.primary(g)
}

func (p *parser) primary(g *taskgraph.Graph) (taskgraph.Expr, error) {
	tk := p.cur()
	switch {
	case tk.kind == tokNumber:
		p.advance()
		return taskgraph.Lit(tk.num), nil
	case tk.kind == tokIdent:
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, ok := g.Params[name]; !ok {
			return nil, p.errorf(tk, "expression references undeclared control parameter %q", name)
		}
		return taskgraph.Ref(name), nil
	case tk.kind == tokPunct && tk.text == "(":
		p.advance()
		e, err := p.expr(g)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf(tk, "expected expression, found %s", tk)
	}
}

func stringsContain(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
