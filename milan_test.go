package milan_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"milan"
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
	opts := &milan.Options{
		Engine:    milan.EngineHoles,
		TieBreak:  milan.TieBreakMinArea,
		Malleable: milan.MalleableEarliestFinish,
	}
	s := milan.NewScheduler(4, 0, opts)
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
// name milan.go declares must be named as milan.<Name> by some other .go
// file of the module or by a README.md / DESIGN.md snippet.
func TestFacadeNamesAreUsed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "milan.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported names found in milan.go")
	}
	var corpus []byte
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		if path == "milan.go" || !(strings.HasSuffix(path, ".go") || path == "README.md" || path == "DESIGN.md") {
			return nil
		}
		b, err := os.ReadFile(path)
		corpus = append(append(corpus, b...), '\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, n := range names {
		if !regexp.MustCompile(`\bmilan\.` + n + `\b`).Match(corpus) {
			unused = append(unused, n)
		}
	}
	if len(unused) > 0 {
		t.Errorf("milan.go exports %d of %d names that no .go file, README or DESIGN snippet names: %v",
			len(unused), len(names), unused)
	}
}
