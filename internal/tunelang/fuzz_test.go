package tunelang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzParseBody is the shared property: arbitrary input must either parse
// into a graph that validates and enumerates without panicking, or return a
// positioned error — never crash or hang.
func fuzzParseBody(t *testing.T, src string) {
	if len(src) > 1<<16 {
		t.Skip()
	}
	g, err := Parse("fuzz", src)
	if err != nil {
		if perr, ok := err.(*syntaxError); ok && perr.Line < 1 {
			t.Fatalf("unpositioned error: %v", perr)
		}
		return
	}
	// A parse success must yield a graph whose enumeration terminates
	// (bounded by the path limit) without panicking.
	g.Enumerate(64)
	g.EnumerateDAGs(64)
	_ = g.String()
}

// FuzzParse hardens the parser against pathological hand-written inputs.
func FuzzParse(f *testing.F) {
	f.Add(junctionSrc)
	f.Add(continuousSrc)
	f.Add("")
	f.Add("task a deadline 5 { config require 1 procs 1 time; }")
	f.Add("task_control_parameters { p = 1; }")
	f.Add("task_par p { task a deadline 1 { config require 1 procs 1 time; } task b deadline 1 { config require 1 procs 1 time; } }")
	f.Add("/* unterminated")
	f.Add("task a deadline 5 { config range (g = 1 .. 1e9 step 0.0001) require 1 procs 1 time; }")
	f.Add("0..1..2 .. 1.5.6")
	f.Fuzz(fuzzParseBody)
}

// FuzzTunelangParse seeds the same property with the repository's real
// task-description exemplars (testdata/*.tune at the repo root), so the
// fuzzer mutates genuine multi-section programs — ranges, junctions,
// pipelines — rather than reconstructing the grammar from scratch.  A
// checked-in seed corpus lives in testdata/fuzz/FuzzTunelangParse.
//
// Run with: go test -fuzz=FuzzTunelangParse ./internal/tunelang
func FuzzTunelangParse(f *testing.F) {
	tunes, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.tune"))
	if err != nil {
		f.Fatal(err)
	}
	if len(tunes) == 0 {
		f.Log("no testdata/*.tune exemplars found; relying on checked-in corpus only")
	}
	for _, path := range tunes {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading %s: %v", path, err)
		}
		f.Add(string(src))
	}
	f.Fuzz(fuzzParseBody)
}

// FuzzLexer: the tokenizer alone must terminate and either error or end
// with EOF on any input.
func FuzzLexer(f *testing.F) {
	f.Add("task a deadline 5")
	f.Add("1.2.3 .. // comment\n /* block */ @")
	f.Add(strings.Repeat("((((", 100))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		toks, err := lexAll(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatal("token stream does not end with EOF")
		}
	})
}
