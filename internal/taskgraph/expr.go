package taskgraph

import (
	"fmt"
	"strconv"
	"strings"
)

// Env binds control-parameter names to values during path enumeration.
// Parameter values are numeric (the tunability language works with integer
// and floating-point control parameters; booleans are 0/1).
type Env map[string]float64

// clone returns an independent copy.
func (e Env) clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Expr is an expression over constants and control parameters, evaluated at
// scheduling time (the paper restricts when-exprs and loop-exprs to
// "constants and control parameters, facilitating their evaluation at
// scheduling time").
type Expr interface {
	// Eval computes the expression under the environment.  Referencing an
	// unbound parameter is an error: it means the program consults a
	// control parameter before any task has assigned it.
	Eval(env Env) (float64, error)
	// String renders the expression in source form.
	String() string
}

// Lit is a numeric literal.
type Lit float64

// Eval implements Expr.
func (l Lit) Eval(Env) (float64, error) { return float64(l), nil }

// String implements Expr.
func (l Lit) String() string { return strconv.FormatFloat(float64(l), 'g', -1, 64) }

// Ref references a control parameter.
type Ref string

// Eval implements Expr.
func (r Ref) Eval(env Env) (float64, error) {
	v, ok := env[string(r)]
	if !ok {
		return 0, fmt.Errorf("taskgraph: parameter %q unbound", string(r))
	}
	return v, nil
}

// String implements Expr.
func (r Ref) String() string { return string(r) }

// Op is a binary operator.
type Op int

// Binary operators supported in when-exprs and loop-exprs.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

// String returns the operator's source form.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Binary applies Op to two subexpressions.  Comparison and logical
// operators yield 0 or 1.
type Binary struct {
	Op   Op
	L, R Expr
}

// Eval implements Expr.
func (b Binary) Eval(env Env) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators.
	switch b.Op {
	case OpAnd:
		if l == 0 {
			return 0, nil
		}
		r, err := b.R.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	case OpOr:
		if l != 0 {
			return 1, nil
		}
		r, err := b.R.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("taskgraph: division by zero in %s", b)
		}
		return l / r, nil
	case OpEq:
		return boolVal(l == r), nil
	case OpNe:
		return boolVal(l != r), nil
	case OpLt:
		return boolVal(l < r), nil
	case OpLe:
		return boolVal(l <= r), nil
	case OpGt:
		return boolVal(l > r), nil
	case OpGe:
		return boolVal(l >= r), nil
	default:
		return 0, fmt.Errorf("taskgraph: unknown operator %v", b.Op)
	}
}

// String implements Expr.
func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct{ X Expr }

// Eval implements Expr.
func (n Not) Eval(env Env) (float64, error) {
	v, err := n.X.Eval(env)
	if err != nil {
		return 0, err
	}
	return boolVal(v == 0), nil
}

// String implements Expr.
func (n Not) String() string { return "!" + n.X.String() }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n Neg) Eval(env Env) (float64, error) {
	v, err := n.X.Eval(env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

// String implements Expr.
func (n Neg) String() string { return "-" + n.X.String() }

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Assign sets a control parameter from an expression (a `finally` action).
type Assign struct {
	Param string
	Value Expr
}

// apply evaluates and stores the assignment in env.
func (a Assign) apply(env Env) error {
	v, err := a.Value.Eval(env)
	if err != nil {
		return fmt.Errorf("taskgraph: assign %s: %w", a.Param, err)
	}
	env[a.Param] = v
	return nil
}

// String renders the assignment.
func (a Assign) String() string { return a.Param + " = " + a.Value.String() }

func joinAssigns(as []Assign) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}
