package milan_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// ownArrivals lists the functions outside internal/workload that draw
// arrival gaps themselves, each with its reason.  A key is a package path
// under milan/ followed by the function's name.
var ownArrivals = map[string]string{
	"cmd/crashtest.genOps": "interleaves grow ops with one or two jobs per arrival: an operation stream, not a job stream",
}

// TestOneArrivalStream holds the simulated drivers to one arrival roll:
// outside internal/workload, no non-test file calls Next on an arrival
// process (workload.Arrivals, *Poisson, *Bursty, *Uniform).  A driver reads
// workload.Stream (or FigureJob.Stream) and admits it through
// sim.Engine.Arrive instead.  bench/ is a module of its own and is not
// checked.  The check is on types, not text: frame readers and grant boxes
// have a Next too.
func TestOneArrivalStream(t *testing.T) {
	m := loadModule(t)
	const workload = "milan/internal/workload"
	var rolls []string
	hit := map[string]bool{}
	for path, p := range m.pkgs {
		if path == workload || path == "milan/bench" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				key := strings.TrimPrefix(strings.TrimPrefix(path, "milan"), "/") + "." + fn.Name.Name
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s := p.info.Selections[sel]
					if s == nil || s.Kind() != types.MethodVal {
						return true
					}
					if obj := s.Obj(); obj.Name() != "Next" || obj.Pkg().Path() != workload {
						return true
					}
					if _, ok := ownArrivals[key]; ok {
						hit[key] = true
						return true
					}
					rolls = append(rolls, m.fset.Position(call.Pos()).String()+" ("+key+")")
					return true
				})
			}
		}
	}
	for key, why := range ownArrivals {
		if !hit[key] {
			t.Errorf("ownArrivals lists %s, which draws no arrival gap", key)
		}
		if why == "" {
			t.Errorf("ownArrivals lists %s without a reason", key)
		}
	}
	sort.Strings(rolls)
	if len(rolls) > 0 {
		t.Errorf("%d non-test calls draw arrival gaps outside internal/workload (read workload.Stream instead):\n  %s",
			len(rolls), strings.Join(rolls, "\n  "))
	}
}
