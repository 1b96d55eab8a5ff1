package milan_test

import (
	"errors"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"milan"
	"milan/internal/core"
)

func TestFacadeEndToEnd(t *testing.T) {
	arb, err := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	job := milan.Job{ID: 1, Chains: []milan.Chain{
		{Name: "fast", Quality: 1, Tasks: []milan.Task{
			{Name: "a", Procs: 8, Duration: 5, Deadline: 50},
		}},
		{Name: "slow", Quality: 0.9, Tasks: []milan.Task{
			{Name: "b", Procs: 2, Duration: 20, Deadline: 50},
		}},
	}}
	grant, err := milan.NewAgent(job).NegotiateWith(arb)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Chain != 0 {
		t.Fatalf("chain = %d, want 0 (earliest finish)", grant.Chain)
	}
	asn, err := milan.AssignProcessors(8, []*milan.Placement{&grant.Placement})
	if err != nil {
		t.Fatal(err)
	}
	if len(asn) != 1 || len(asn[0].Procs) != 8 {
		t.Fatalf("assignment = %+v", asn)
	}
}

func TestFacadeRejection(t *testing.T) {
	arb, err := milan.NewArbitrator(milan.ArbitratorConfig{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := milan.Job{ID: 1, Chains: []milan.Chain{
		{Name: "big", Tasks: []milan.Task{{Name: "a", Procs: 4, Duration: 5, Deadline: 50}}},
	}}
	_, err = milan.NewAgent(job).NegotiateWith(arb)
	if !errors.Is(err, milan.ErrRejected) {
		t.Fatalf("err = %v, want milan.ErrRejected", err)
	}
}

func TestFacadeParseTunability(t *testing.T) {
	g, err := milan.ParseTunability("demo", `
task_control_parameters { mode; }
task work deadline 20 params (mode) {
    config (mode = 1) require 4 procs 5 time quality 1.0;
    config (mode = 2) require 1 procs 18 time quality 0.8;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	job, envs, err := g.Job(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Tunable() || len(envs) != 2 {
		t.Fatalf("job = %+v envs = %v", job, envs)
	}
	sched := milan.NewScheduler(4, 0, nil)
	pl, err := sched.Admit(job)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Chain != 0 {
		t.Fatalf("chain = %d, want 0 (4x5 finishes first)", pl.Chain)
	}
}

func TestFacadeSchedulerOptions(t *testing.T) {
	s := milan.NewScheduler(4, 0, &milan.Options{TieBreak: core.TieBreakMinArea})
	job := milan.Job{ID: 1, Chains: []milan.Chain{
		{Name: "m", Tasks: []milan.Task{{Name: "w", Malleable: true, Work: 8, MaxProcs: 4, Deadline: 100}}},
	}}
	pl, err := s.Admit(job)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Tasks[0].Procs != 4 {
		t.Fatalf("procs = %d, want 4", pl.Tasks[0].Procs)
	}
}

// TestFacadeNamesAreUsed holds the facade to what is used: every exported
// name milan.go declares must be named as milan.<Name> by some other non-test
// .go file of the module or by a README.md / DESIGN.md snippet, or appear in
// the exported signature or fields of a name that is.
func TestFacadeNamesAreUsed(t *testing.T) {
	m := loadModule(t)
	facade := m.pkgs["milan"].pkg.Scope()
	var names []string
	for _, n := range facade.Names() {
		if token.IsExported(n) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported names found in milan.go")
	}
	var corpus []byte
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		if path == "milan.go" || strings.HasSuffix(path, "_test.go") ||
			!(strings.HasSuffix(path, ".go") || path == "README.md" || path == "DESIGN.md") {
			return nil
		}
		b, err := os.ReadFile(path)
		corpus = append(append(corpus, b...), '\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var named, rest []types.Object
	for _, n := range names {
		if regexp.MustCompile(`\bmilan\.` + n + `\b`).Match(corpus) {
			named = append(named, facade.Lookup(n))
		} else {
			rest = append(rest, facade.Lookup(n))
		}
	}
	spelled := m.signatureNames(named)
	var unused []string
	for _, obj := range rest {
		if tn, ok := obj.(*types.TypeName); ok {
			if nt, ok := types.Unalias(tn.Type()).(*types.Named); ok && (spelled[tn] || spelled[nt.Obj()]) {
				continue
			}
		}
		unused = append(unused, obj.Name())
	}
	if len(unused) > 0 {
		t.Errorf("milan.go exports %d of %d names that no non-test .go file, README or DESIGN snippet names: %v",
			len(unused), len(names), unused)
	}
}

// TestEverySettingHasACaller holds the configuration structs to what is
// used: every exported field of each struct below must be set — as a
// composite-literal key, as an assignment target, or by address to a setter
// such as flag.IntVar — by a non-test file of some other package of the
// module.  Setting cfg.Job.T sets cfg.Job too.  A setting nobody sets is a constant
// in disguise, and each one doubles the configurations tests must cover.
// A second pass holds every hook, an exported func-typed field of an
// exported struct, to a setter in any non-test file of the module: a
// package may set its own hooks, as campaign's scenario table does.
// The module's non-test files are type-checked from source; bench/ is a
// module of its own and does not count as a caller.
func TestEverySettingHasACaller(t *testing.T) {
	structs := []string{
		"milan/internal/core.Options",
		"milan/internal/fed.Config",
		"milan/internal/durable.Config",
		"milan/internal/durable.StoreOptions",
		"milan/internal/qos.ShedConfig",
		"milan/internal/obs.Config",
		"milan/internal/obs/slo.Options",
		"milan/internal/obs/telemetry.AggregatorConfig",
		"milan/internal/experiments.Config",
		"milan/internal/campaign.Config",
		"milan/internal/campaign.Inject",
		"milan/internal/calypso.Config",
		"milan/internal/metrics.PlotOptions",
		"milan/internal/resbroker.Request",
		"milan/internal/resbroker.Resource",
	}
	// Settings kept without a caller in the module, each for its reason.
	exceptions := map[string]string{
		"milan/internal/core.Options.ProfileIndex": "set only by bench/'s capacity oracle (ROADMAP 1d)",
		"milan/internal/durable.Config.Shed":       "the served shedder is ROADMAP 5c",
		"milan/internal/durable.Config.Shards":     "set to 1 only by bench/stack.go; the durable plane is one shard (ROADMAP 1d)",
		"milan/internal/durable.Config.ProbeK":     "set to 1 only by bench/stack.go; one shard probes nothing (ROADMAP 1d)",
		"milan/internal/fed.Config.Shards":         "set only by bench/stack.go, whose fed_s8 rung is the router's last user (ROADMAP 1d, 25b)",
		"milan/internal/fed.Config.ProbeK":         "set only by bench/stack.go, whose fed_s8 rung is the router's last user (ROADMAP 1d, 25b)",
	}
	// Hooks kept without a setter in the module, each for its reason.
	hookExceptions := map[string]string{
		"milan/internal/qos.ArbitratorConfig.Observer":  "set only by the differential tests on the reference arbitrator (ROADMAP 1d)",
		"milan/internal/qos.DynamicArbitrator.Observer": "the dynamic arbitrator waits on renegotiation (ROADMAP 2)",
	}

	m := loadModule(t)
	pkgs := m.pkgs

	// The fields to account for, by object.
	want := map[*types.Var]string{}
	for _, s := range structs {
		dot := strings.LastIndex(s, ".")
		c := pkgs[s[:dot]]
		if c == nil || c.pkg == nil {
			t.Fatalf("%s: no such package", s)
		}
		obj := c.pkg.Scope().Lookup(s[dot+1:])
		if obj == nil {
			t.Fatalf("%s: no such type", s)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s is not a struct", s)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				want[f] = s + "." + f.Name()
			}
		}
	}
	// The hooks to account for: every exported func-typed field of an
	// exported struct the module declares.
	hooks := map[*types.Var]string{}
	for path, c := range pkgs {
		if path == "milan/bench" || c.pkg == nil {
			continue
		}
		scope := c.pkg.Scope()
		for _, n := range scope.Names() {
			obj, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !obj.Exported() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, fn := f.Type().Underlying().(*types.Signature); fn && f.Exported() {
					hooks[f] = path + "." + n + "." + f.Name()
				}
			}
		}
	}
	// Every field some other package sets, and every field set anywhere.
	set, setAnywhere := map[*types.Var]bool{}, map[*types.Var]bool{}
	for path, c := range pkgs {
		if path == "milan/bench" {
			continue
		}
		mark := func(v *types.Var) {
			setAnywhere[v] = true
			if v.Pkg().Path() != path {
				set[v] = true
			}
		}
		// field marks every field on the selector path e.
		field := func(e ast.Expr) {
			for {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				if s := c.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj().(*types.Var))
				}
				e = sel.X
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
							mark(v)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.CallExpr:
					for _, arg := range n.Args {
						if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
							field(u.X)
						}
					}
				}
				return true
			})
		}
	}

	unsetOf := func(want map[*types.Var]string, set map[*types.Var]bool, exceptions map[string]string) []string {
		var unset []string
		for v, name := range want {
			if _, ok := exceptions[name]; ok {
				if set[v] {
					t.Errorf("%s has a caller now: take it out of the exceptions", name)
				}
				continue
			}
			if !set[v] {
				unset = append(unset, name)
			}
		}
		for name := range exceptions {
			found := false
			for _, n := range want {
				found = found || n == name
			}
			if !found {
				t.Errorf("exception %s names no field checked", name)
			}
		}
		sort.Strings(unset)
		return unset
	}
	if unset := unsetOf(want, set, exceptions); len(unset) > 0 {
		t.Errorf("%d settings no non-test code of another package sets (make each a constant, or delete it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	if unset := unsetOf(hooks, setAnywhere, hookExceptions); len(unset) > 0 {
		t.Errorf("%d hooks no non-test code sets (delete each, with what only it reads):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}
