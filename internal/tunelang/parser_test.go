package tunelang

import (
	"math"
	"strings"
	"testing"

	"milan/internal/taskgraph"
)

// junctionSrc is the paper's Figure-3 junction detection program written in
// the tunability language.
const junctionSrc = `
// Tunable junction detection (Section 4.3 of the paper).
task_control_parameters {
    sampleGranularity;
    searchDistance;
    c;
}

task sampleImage deadline 10.0 params (sampleGranularity) {
    config (sampleGranularity = 16) require 4 procs 8.0 time quality 1.0;
    config (sampleGranularity = 64) require 4 procs 2.0 time quality 0.95;
}

task_select markRegion {
    when (sampleGranularity == 16) {
        task markRegionFine deadline 14 params (searchDistance) {
            config (searchDistance = 2) require 2 procs 3.0 time quality 1.0;
        }
    } finally { c = 1; }
    when (sampleGranularity == 64) {
        task markRegionCoarse deadline 14 params (searchDistance) {
            config (searchDistance = 8) require 2 procs 4.0 time quality 1.0;
        }
    } finally { c = 2; }
}

task computeJunctions deadline 40 params (c) {
    config (c = 1) require 4 procs 10.0 time quality 1.0;
    config (c = 2) require 8 procs 12.0 time quality 0.9;
}
`

func TestParseJunctionProgram(t *testing.T) {
	g, err := Parse("junction", junctionSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Params) != 3 {
		t.Fatalf("params = %v", g.Params)
	}
	chains, envs, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("got %d execution paths, want 2", len(chains))
	}
	// Fine path: 4x8 sampling, 2x3 regions, 4x10 junctions.
	fine := chains[0]
	wantFine := [][2]float64{{4, 8}, {2, 3}, {4, 10}}
	for i, w := range wantFine {
		if float64(fine.Tasks[i].Procs) != w[0] || fine.Tasks[i].Duration != w[1] {
			t.Errorf("fine task %d = %dx%v, want %vx%v",
				i, fine.Tasks[i].Procs, fine.Tasks[i].Duration, w[0], w[1])
		}
	}
	// Coarse path compensates cheap sampling with expensive analysis.
	coarse := chains[1]
	if coarse.Tasks[0].Duration != 2 || coarse.Tasks[2].Procs != 8 {
		t.Errorf("coarse path = %+v", coarse.Tasks)
	}
	if envs[0]["c"] != 1 || envs[1]["c"] != 2 {
		t.Errorf("envs = %v", envs)
	}
	if math.Abs(coarse.Quality-0.95*0.9) > 1e-12 {
		t.Errorf("coarse quality = %v", coarse.Quality)
	}
	// Deadlines are relative until Job materialization.
	if fine.Tasks[0].Deadline != 10 || fine.Tasks[2].Deadline != 40 {
		t.Errorf("deadlines = %v, %v", fine.Tasks[0].Deadline, fine.Tasks[2].Deadline)
	}
}

func TestParseInitializedParamsAndLoop(t *testing.T) {
	src := `
task_control_parameters { iters = 2; quality_mode = 1; }
task_loop main (iters) {
    task step deadline 100 {
        config require 2 procs 5 time;
    }
}
`
	g, err := Parse("looped", src)
	if err != nil {
		t.Fatal(err)
	}
	chains, _, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || len(chains[0].Tasks) != 2 {
		t.Fatalf("chains = %+v", chains)
	}
	// Default quality (unspecified) is treated as non-degrading.
	if chains[0].Quality != 1 {
		t.Errorf("quality = %v, want 1", chains[0].Quality)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := `
task_control_parameters { a = 2; b = 3; n; }
task pick deadline 10 params (n) {
    config (n = 1) require 1 procs 1 time;
    config (n = 2) require 2 procs 1 time;
}
task_select s {
    when (a + b * 2 == 8 && !(a > b) || 0) {
        task yes deadline 20 { config require 1 procs 1 time; }
    }
    when (n >= 2) {
        task alt deadline 20 { config require 1 procs 2 time; }
    }
}
`
	g, err := Parse("prec", src)
	if err != nil {
		t.Fatal(err)
	}
	chains, _, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	// Arm 1 is true for both n-choices (2 paths); arm 2 only for n=2
	// (1 more path): 3 total.
	if len(chains) != 3 {
		t.Fatalf("got %d paths, want 3", len(chains))
	}
}

func TestParseNegativeAndFloatNumbers(t *testing.T) {
	src := `
task_control_parameters { x = -4; y = .5; }
task a deadline 12.25 {
    config require 3 procs 0.75 time quality 0.5;
}
`
	g, err := Parse("nums", src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Params["x"] != -4 || g.Params["y"] != 0.5 {
		t.Errorf("params = %v", g.Params)
	}
	task := g.Root.(taskgraph.Seq)[0].(*taskgraph.TaskNode)
	if task.Deadline != 12.25 || task.Configs[0].Duration != 0.75 {
		t.Errorf("task = %+v", task)
	}
}

func TestParseCommentsEverywhere(t *testing.T) {
	src := `
/* block
   comment */
task_control_parameters { p; } // trailing
task a deadline 5 params (p) { // comment
    config (p = 1) require 1 procs 1 time; /* inline */
}
`
	if _, err := Parse("comments", src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"empty program", ``, "no steps"},
		{"params only", `task_control_parameters { p; }`, "no steps"},
		{"garbage", `bananas`, "expected task"},
		{"unterminated comment", `/* oops`, "unterminated block comment"},
		{"bad char", `task a deadline 5 { config require 1 procs 1 time; } @`, "unexpected character"},
		{"task without deadline", `task a { }`, `expected "deadline"`},
		{"task without configs", `task a deadline 5 { }`, "no configurations"},
		{"undeclared param in task", `task a deadline 5 params (q) { config require 1 procs 1 time; }`,
			"undeclared control parameter"},
		{"config param not in list", `
task_control_parameters { p; q; }
task a deadline 5 params (p) { config (q = 1) require 1 procs 1 time; }`,
			"not in task"},
		{"duplicate config assign", `
task_control_parameters { p; }
task a deadline 5 params (p) { config (p = 1, p = 2) require 1 procs 1 time; }`,
			"twice"},
		{"fractional procs", `task a deadline 5 { config require 1.5 procs 1 time; }`,
			"positive integer"},
		{"zero procs", `task a deadline 5 { config require 0 procs 1 time; }`,
			"positive integer"},
		{"missing semicolon", `task a deadline 5 { config require 1 procs 1 time }`,
			`expected ";"`},
		{"empty select", `task_select s { }`, "no when-arms"},
		{"empty arm body", `
task_control_parameters { p = 1; }
task_select s { when (p == 1) { } }`, "empty body"},
		{"finally undeclared param", `
task_control_parameters { p = 1; }
task_select s {
    when (p == 1) { task a deadline 5 { config require 1 procs 1 time; } }
    finally { zzz = 1; }
}`, "undeclared control parameter"},
		{"empty loop body", `
task_control_parameters { n = 1; }
task_loop l (n) { }`, "empty body"},
		{"expr undeclared param", `
task_select s { when (mystery == 1) { task a deadline 5 { config require 1 procs 1 time; } } }`,
			"undeclared control parameter"},
		{"reserved word as name", `task when deadline 5 { config require 1 procs 1 time; }`,
			"reserved word"},
		{"duplicate param decl", `task_control_parameters { p; p; }
task a deadline 5 { config require 1 procs 1 time; }`, "declared twice"},
		{"unbalanced paren", `
task_control_parameters { p = 1; }
task_select s { when ((p == 1) { task a deadline 5 { config require 1 procs 1 time; } } }`,
			`expected ")"`},
	}
	for _, c := range cases {
		_, err := Parse(c.name, c.src)
		if err == nil {
			t.Errorf("%s: parsed successfully", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestParseErrorsArePositioned(t *testing.T) {
	src := "task a deadline 5 {\n    config require 0 procs 1 time;\n}"
	_, err := Parse("pos", src)
	if err == nil {
		t.Fatal("parsed")
	}
	perr, ok := err.(*syntaxError)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2 (got %v)", perr.Line, perr)
	}
}

func TestParsedGraphMaterializesJob(t *testing.T) {
	g, err := Parse("junction", junctionSrc)
	if err != nil {
		t.Fatal(err)
	}
	job, envs, err := g.Job(3, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Tunable() || job.Release != 50 {
		t.Fatalf("job = %+v", job)
	}
	if job.Chains[0].Tasks[0].Deadline != 60 {
		t.Errorf("absolute deadline = %v, want 60", job.Chains[0].Tasks[0].Deadline)
	}
	if len(envs) != 2 {
		t.Errorf("envs = %v", envs)
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll(`foo 1.5 == != <= >= && || { } ( ) ; , = < > + - * / !`)
	if err != nil {
		t.Fatal(err)
	}
	// 22 tokens + EOF.
	if len(toks) != 23 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].kind != tokIdent || toks[0].text != "foo" {
		t.Errorf("tok 0 = %v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[1].num != 1.5 {
		t.Errorf("tok 1 = %v", toks[1])
	}
	if toks[2].text != "==" || toks[7].text != "||" {
		t.Errorf("operators = %v %v", toks[2], toks[7])
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("a\n  bb\n\tccc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Errorf("a at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("bb at %d:%d", toks[1].line, toks[1].col)
	}
	if toks[2].line != 3 || toks[2].col != 2 {
		t.Errorf("ccc at %d:%d", toks[2].line, toks[2].col)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &syntaxError{Line: 3, Col: 7, Msg: "boom"}
	if got := e.Error(); got != "3:7: boom" {
		t.Errorf("Error() = %q", got)
	}
}
