package taskgraph

import (
	"strings"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, e Expr, env Env) float64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestExprArithmetic(t *testing.T) {
	env := Env{"x": 4, "y": 2}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Lit(3.5), 3.5},
		{Ref("x"), 4},
		{Binary{OpAdd, Ref("x"), Ref("y")}, 6},
		{Binary{OpSub, Ref("x"), Ref("y")}, 2},
		{Binary{OpMul, Ref("x"), Ref("y")}, 8},
		{Binary{OpDiv, Ref("x"), Ref("y")}, 2},
		{Neg{Ref("x")}, -4},
		{Binary{OpAdd, Binary{OpMul, Lit(2), Ref("x")}, Lit(1)}, 9},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExprComparisonsAndLogic(t *testing.T) {
	env := Env{"x": 4, "y": 2}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Binary{OpEq, Ref("x"), Lit(4)}, 1},
		{Binary{OpEq, Ref("x"), Lit(5)}, 0},
		{Binary{OpNe, Ref("x"), Lit(5)}, 1},
		{Binary{OpLt, Ref("y"), Ref("x")}, 1},
		{Binary{OpLe, Ref("x"), Ref("x")}, 1},
		{Binary{OpGt, Ref("y"), Ref("x")}, 0},
		{Binary{OpGe, Ref("x"), Lit(4)}, 1},
		{Binary{OpAnd, Lit(1), Lit(2)}, 1},
		{Binary{OpAnd, Lit(0), Lit(2)}, 0},
		{Binary{OpOr, Lit(0), Lit(0)}, 0},
		{Binary{OpOr, Lit(0), Lit(3)}, 1},
		{Not{Lit(0)}, 1},
		{Not{Lit(7)}, 0},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExprShortCircuit(t *testing.T) {
	// The right operand references an unbound parameter; short-circuiting
	// must avoid evaluating it.
	if got := evalOK(t, Binary{OpAnd, Lit(0), Ref("unbound")}, Env{}); got != 0 {
		t.Errorf("0 && unbound = %v", got)
	}
	if got := evalOK(t, Binary{OpOr, Lit(1), Ref("unbound")}, Env{}); got != 1 {
		t.Errorf("1 || unbound = %v", got)
	}
	// Without short-circuit the unbound reference is an error.
	if _, err := (Binary{OpAnd, Lit(1), Ref("unbound")}).Eval(Env{}); err == nil {
		t.Error("1 && unbound succeeded")
	}
}

func TestExprErrors(t *testing.T) {
	if _, err := Ref("missing").Eval(Env{}); err == nil {
		t.Error("unbound ref evaluated")
	}
	if _, err := (Binary{OpDiv, Lit(1), Lit(0)}).Eval(Env{}); err == nil {
		t.Error("division by zero evaluated")
	}
	if _, err := (Binary{Op(99), Lit(1), Lit(1)}).Eval(Env{}); err == nil {
		t.Error("unknown operator evaluated")
	}
	// Errors propagate through unary wrappers.
	if _, err := (Not{Ref("m")}).Eval(Env{}); err == nil {
		t.Error("Not over unbound ref evaluated")
	}
	if _, err := (Neg{Ref("m")}).Eval(Env{}); err == nil {
		t.Error("Neg over unbound ref evaluated")
	}
}

func TestExprString(t *testing.T) {
	e := Binary{OpAnd, Binary{OpEq, Ref("g"), Lit(16)}, Not{Ref("done")}}
	got := e.String()
	for _, want := range []string{"g", "==", "16", "&&", "!done"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("unknown op string = %q", Op(99).String())
	}
}

func TestAssignApply(t *testing.T) {
	env := Env{"x": 2}
	a := Assign{Param: "y", Value: Binary{OpMul, Ref("x"), Lit(3)}}
	if err := a.apply(env); err != nil {
		t.Fatal(err)
	}
	if env["y"] != 6 {
		t.Errorf("y = %v, want 6", env["y"])
	}
	bad := Assign{Param: "z", Value: Ref("missing")}
	if err := bad.apply(env); err == nil {
		t.Error("assignment from unbound ref applied")
	}
	if got := a.String(); !strings.Contains(got, "y = ") {
		t.Errorf("Assign.String() = %q", got)
	}
}

func TestEnvCloneIsIndependent(t *testing.T) {
	a := Env{"x": 1}
	b := a.clone()
	b["x"] = 2
	b["y"] = 3
	if a["x"] != 1 {
		t.Error("clone mutated original")
	}
	if _, ok := a["y"]; ok {
		t.Error("clone shares storage")
	}
}

// TestQuickComparisonsConsistent: for random operand pairs, exactly one of
// <, ==, > holds, and <= == (< or ==).
func TestQuickComparisonsConsistent(t *testing.T) {
	f := func(a, b float64) bool {
		env := Env{"a": a, "b": b}
		lt := evalQ(Binary{OpLt, Ref("a"), Ref("b")}, env)
		eq := evalQ(Binary{OpEq, Ref("a"), Ref("b")}, env)
		gt := evalQ(Binary{OpGt, Ref("a"), Ref("b")}, env)
		le := evalQ(Binary{OpLe, Ref("a"), Ref("b")}, env)
		ge := evalQ(Binary{OpGe, Ref("a"), Ref("b")}, env)
		if lt+eq+gt != 1 {
			return false
		}
		if le != boolVal(lt == 1 || eq == 1) {
			return false
		}
		return ge == boolVal(gt == 1 || eq == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func evalQ(e Expr, env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}
