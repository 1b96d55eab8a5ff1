package milan_test

import (
	"bufio"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unconsumed lists the registered signals kept without a consumer, each with
// its reason.
var unconsumed = map[string]string{}

// signal is one name the program registers with obs.Registry, or a family of
// names built around a computed part, written prefix*suffix.
type signal struct {
	name           string
	prefix, suffix string // a family's fixed parts
	consts         []*types.Const
	fields         []*types.Var // struct fields that keep the instrument
}

// spelling is one way a file can name a signal: a pattern, and the directory
// whose files alone may spell it so ("" for any file).
type spelling struct {
	re  *regexp.Regexp
	dir string
}

// TestEverySignalHasAConsumer holds the registry to what is read: every name
// a non-test file passes to obs.Registry's Counter, Gauge or Histogram —
// through a constant, or as a family built around a computed part — must
// have a consumer:
//   - a test that reads its value: a _test.go file names it as a string (a
//     Snapshot() key, a name in the JSON exposition), by the constant that
//     spells it, or calls Value or Snapshot on the exported field that keeps
//     its instrument (durable.Metrics);
//   - an SLO objective or sentinel rule: non-test code of obs/slo calls
//     Value or Snapshot on the field that keeps its instrument;
//   - a bench/ metric: bench/'s code names it;
//   - a runbook step: a row of a docs/ table with a signal (or metric)
//     column and an operator-action column names it, and the action is
//     filled in.
//
// A signal nobody reads is deleted; one kept anyway is listed in unconsumed
// with its reason, and a listed signal that found a consumer fails.
func TestEverySignalHasAConsumer(t *testing.T) {
	m := loadModule(t)
	sigs := registeredSignals(t, m)
	if len(sigs) == 0 {
		t.Fatal("no registry names found")
	}
	consumers := map[*signal][]string{}

	// Tests and bench/, as text.
	dirOf := map[string]string{} // package path -> directory
	for _, p := range m.pkgs {
		dirOf[p.path] = p.dir
	}
	spellings := map[*signal][]spelling{}
	for _, s := range sigs {
		name := regexp.QuoteMeta(s.name)
		if s.prefix != "" || s.suffix != "" {
			name = regexp.QuoteMeta(s.prefix) + `(\w*` + regexp.QuoteMeta(s.suffix) + `)?`
		}
		sp := []spelling{{re: regexp.MustCompile(`"` + name + `\\?"`)}}
		for _, c := range s.consts {
			home := dirOf[c.Pkg().Path()]
			sp = append(sp, spelling{regexp.MustCompile(`\b` + c.Name() + `\b`), home})
			if c.Exported() {
				sp = append(sp, spelling{re: regexp.MustCompile(`\b` + c.Pkg().Name() + `\.` + c.Name() + `\b`)})
			}
		}
		for _, f := range s.fields {
			read := spelling{re: regexp.MustCompile(`\.` + f.Name() + `\.(Value|Snapshot)\(`)}
			if !f.Exported() {
				read.dir = dirOf[f.Pkg().Path()]
			}
			sp = append(sp, read)
		}
		spellings[s] = sp
	}
	for _, p := range m.pkgs {
		entries, err := os.ReadDir(p.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := filepath.Join(p.dir, e.Name())
			kind := "test"
			switch {
			case !strings.HasSuffix(name, ".go") || name == "signals_test.go":
				continue
			case !strings.HasSuffix(name, "_test.go"):
				if p.path != "milan/bench" {
					continue
				}
				kind = "bench"
			}
			text, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for s, sp := range spellings {
				for _, x := range sp {
					if (x.dir == "" || x.dir == p.dir) && x.re.Match(text) {
						consumers[s] = append(consumers[s], kind+" "+name)
						break
					}
				}
			}
		}
	}

	// SLO objectives and sentinel rules.
	kept := map[*types.Var]*signal{}
	for _, s := range sigs {
		for _, f := range s.fields {
			kept[f] = s
		}
	}
	for _, p := range m.pkgs {
		if p.path != "milan/internal/obs/slo" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				read, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (read.Sel.Name != "Value" && read.Sel.Name != "Snapshot") {
					return true
				}
				inner, ok := read.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel := p.info.Selections[inner]; sel != nil && sel.Kind() == types.FieldVal {
					if s := kept[sel.Obj().(*types.Var)]; s != nil {
						consumers[s] = append(consumers[s], "slo "+m.fset.Position(call.Pos()).String())
					}
				}
				return true
			})
		}
	}

	// Runbook steps.
	err := filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".md") {
			return err
		}
		for _, step := range runbookSteps(t, path) {
			for _, s := range sigs {
				for _, name := range step.names {
					if name == s.name || (s.prefix != "" || s.suffix != "") &&
						len(name) > len(s.prefix)+len(s.suffix) &&
						strings.HasPrefix(name, s.prefix) && strings.HasSuffix(name, s.suffix) {
						consumers[s] = append(consumers[s], "runbook "+step.at)
						break
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var orphans []string
	for _, s := range sigs {
		why, listed := unconsumed[s.name]
		switch {
		case listed && len(consumers[s]) > 0:
			t.Errorf("%s has a consumer now (%s): take it out of unconsumed", s.name, consumers[s][0])
		case listed && why == "":
			t.Errorf("unconsumed lists %s without a reason", s.name)
		case !listed && len(consumers[s]) == 0:
			orphans = append(orphans, s.name)
		case len(consumers[s]) > 0:
			t.Logf("%s: %s", s.name, strings.Join(consumers[s], "; "))
		}
	}
	for name := range unconsumed {
		if sigs[name] == nil {
			t.Errorf("unconsumed lists %s, which nothing registers", name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d registry signals have no consumer — no test reads them, no SLO objective or sentinel rule, no bench/ metric, no runbook step (delete, give one a consumer, or list each):\n  %s",
			len(orphans), len(sigs), strings.Join(orphans, "\n  "))
	}
}

// registeredSignals returns every name the module's non-test files pass to
// obs.Registry's Counter, Gauge or Histogram, by name.
func registeredSignals(t *testing.T, m *loadedModule) map[string]*signal {
	t.Helper()
	sigs := map[string]*signal{}
	for _, p := range m.pkgs {
		kept := map[*ast.CallExpr]*types.Var{} // a call whose result a struct field keeps
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					call, isCall := n.Value.(*ast.CallExpr)
					if key, ok := n.Key.(*ast.Ident); ok && isCall {
						if v, ok := p.info.Uses[key].(*types.Var); ok && v.IsField() {
							kept[call] = v
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, rhs := range n.Rhs {
						call, isCall := rhs.(*ast.CallExpr)
						lhs, isSel := n.Lhs[i].(*ast.SelectorExpr)
						if !isCall || !isSel {
							continue
						}
						if sel := p.info.Selections[lhs]; sel != nil && sel.Kind() == types.FieldVal {
							kept[call] = sel.Obj().(*types.Var)
						}
					}
				case *ast.CallExpr:
					if !registers(p.info, n) {
						return true
					}
					s := nameOf(p.info, n.Args[0])
					if s == nil {
						t.Errorf("%s: cannot name the signal %s registers", m.fset.Position(n.Pos()), types.ExprString(n.Args[0]))
						return true
					}
					if old := sigs[s.name]; old != nil {
						s.consts = append(s.consts, old.consts...)
						s.fields = append(s.fields, old.fields...)
					}
					if v := kept[n]; v != nil {
						s.fields = append(s.fields, v)
					}
					sigs[s.name] = s
				}
				return true
			})
		}
	}
	return sigs
}

// registers reports whether call registers an instrument with obs.Registry.
func registers(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	switch s.Obj().(*types.Func).FullName() {
	case "(*milan/internal/obs.Registry).Counter",
		"(*milan/internal/obs.Registry).Gauge",
		"(*milan/internal/obs.Registry).Histogram":
		return true
	}
	return false
}

// nameOf names the signal a registry call's argument spells: a constant
// string, or constant parts around one computed part (a family).  It
// returns nil for anything else.
func nameOf(info *types.Info, arg ast.Expr) *signal {
	s := &signal{}
	ast.Inspect(arg, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := info.Uses[id].(*types.Const); ok {
				s.consts = append(s.consts, c)
			}
		}
		return true
	})
	if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
		s.name = constant.StringVal(tv.Value)
		return s
	}
	var parts []ast.Expr
	var flatten func(ast.Expr)
	flatten = func(e ast.Expr) {
		if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.ADD {
			flatten(b.X)
			flatten(b.Y)
			return
		}
		parts = append(parts, e)
	}
	flatten(arg)
	str := func(e ast.Expr) (string, bool) {
		tv := info.Types[e]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			return "", false
		}
		return constant.StringVal(tv.Value), true
	}
	i, j := 0, len(parts)
	for ; i < j; i++ {
		v, ok := str(parts[i])
		if !ok {
			break
		}
		s.prefix += v
	}
	for ; j > i; j-- {
		v, ok := str(parts[j-1])
		if !ok {
			break
		}
		s.suffix = v + s.suffix
	}
	if j-i != 1 || s.prefix+s.suffix == "" {
		return nil
	}
	s.name = s.prefix + "*" + s.suffix
	return s
}

// step is one runbook row: the names in its signal cell, and where it is.
type step struct {
	names []string
	at    string
}

var backticked = regexp.MustCompile("`([^`]+)`")

// runbookSteps returns the rows of the markdown tables in path that have a
// signal (or metric) column and an operator-action column, and whose action
// is filled in.
func runbookSteps(t *testing.T, path string) []step {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := func(line string) []string {
		return strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	}
	var steps []step
	sig, act := -1, -1 // the current table's columns; -1 outside a runbook table
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if !strings.HasPrefix(line, "|") {
			sig, act = -1, -1
			continue
		}
		row := cells(line)
		if sig < 0 && act < 0 {
			sig, act = len(row), len(row) // a table's first row is its header
			for i, c := range row {
				c = strings.ToLower(c)
				if sig == len(row) && (strings.Contains(c, "signal") || strings.Contains(c, "metric")) {
					sig = i
				}
				if act == len(row) && strings.Contains(c, "action") {
					act = i
				}
			}
			continue
		}
		if sig >= len(row) || act >= len(row) {
			continue // not a runbook table, or a short row
		}
		if a := strings.Trim(strings.TrimSpace(row[act]), "-—"); a == "" {
			continue // the separator row, or no action
		}
		var names []string
		for _, m := range backticked.FindAllStringSubmatch(row[sig], -1) {
			names = append(names, m[1])
		}
		steps = append(steps, step{names, path + ":" + strconv.Itoa(n)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return steps
}
