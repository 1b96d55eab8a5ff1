//go:build linkcheck

package milan_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unlinked lists the non-test functions outside bench/ that no binary links
// and no row of names_test.go's testSupport already covers, each with the
// ROADMAP item that deletes it or gives it a caller, or "test support" for
// code only tests call.  A key is a package path under internal/ (or under
// the module root for the facade, "milan", cmd/ and examples/), then a
// function or a type's method ("durable.Plane.jobCompletedLocked"); a
// package path alone covers the package.
var unlinked = map[string]string{
	// Test support.
	"obs.ReadArtifact":            "test support: the artifact tests read every kind the binaries write through it; FuzzArtifactDecode fuzzes it",
	"obs/slo.Snapshot.DecodeLine": "test support: DecodeSnapshot's line decoder",

	// Deleted or given a caller by a later ROADMAP item.
	"qos.Arbitrator.IndexStats":           "the reference arbitrator's queries move to test-side references (ROADMAP 1d)",
	"qos.Arbitrator.Utilization":          "the reference arbitrator's queries move to test-side references (ROADMAP 1d)",
	"qos.Arbitrator.WhatIf":               "the reference arbitrator's queries move to test-side references (ROADMAP 1d)",
	"durable/vfs.OS.OpenAppend":           "the store never appends to a file it reopens; bench/stack.go forwards it (ROADMAP 1f)",
	"durable/vfs.Mem.OpenAppend":          "the store never appends to a file it reopens; bench/stack.go forwards it (ROADMAP 1f)",
	"durable/vfs.Fault.OpenAppend":        "the store never appends to a file it reopens; bench/stack.go forwards it (ROADMAP 1f)",
	"cmd/crashtest.journalTap.OpenAppend": "the store never appends to a file it reopens; bench/stack.go forwards it (ROADMAP 1f)",
	"durable.Plane.Utilization":           "no wire op asks for it; bench/stack.go's tracedPlane forwards it (ROADMAP 1f)",
	"qos.DynamicArbitrator.Negotiate":     "renegotiation moves onto the plane (ROADMAP 2)",
	"qos.DynamicArbitrator.Utilization":   "renegotiation moves onto the plane (ROADMAP 2)",
	"durable.Plane.jobCompletedLocked":    "JobCompleted's body (the parked completion op)",
	"durable.Plane.liveGrant":             "JobCompleted's lookup (the parked completion op)",
}

// TestEveryFunctionIsLinked holds every non-test function outside bench/ to
// "linked or listed": it builds every main package of the module for linux
// and darwin, and bench's servedbench for linux, with inlining off, reads
// their text symbols with go tool nm, and fails on a function that no binary
// built for a system it is declared under holds and no row of unlinked or
// testSupport names, and on a row of unlinked that covers a linked function
// or none at all.  A testSupport row may cover a linked function: it lists
// names without a caller outside their package, which
// TestEveryNameHasACaller holds it to.  A main
// package's functions are looked up in its own binary.  Run it with
// -tags linkcheck: it is a CI step of its own, since two cold builds of
// every binary cost a minute.
func TestEveryFunctionIsLinked(t *testing.T) {
	type function struct {
		key, pos string
		lines    int
		linked   bool
	}
	funcs := map[string]*function{} // by position: a twin per system is two functions
	// darwin builds the files linux does not, such as vfs/os_other.go.
	for _, goos := range []string{"linux", "darwin"} {
		ctx := build.Default
		ctx.GOOS = goos
		m, err := typeCheckModule(&ctx)
		if err != nil {
			t.Fatalf("%s: %v", goos, err)
		}
		var mains []string
		for _, p := range m.pkgs {
			if p.pkg != nil && p.pkg.Name() == "main" && p.path != "milan/bench" {
				mains = append(mains, p.path)
			}
		}
		linked := linkedSymbols(t, goos, mains)
		for _, p := range m.pkgs {
			if p.path == "milan/bench" {
				continue
			}
			for _, f := range p.files {
				for _, decl := range f.Decls {
					d, ok := decl.(*ast.FuncDecl)
					if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
						continue
					}
					name := d.Name.Name
					if d.Recv != nil {
						name = receiverName(d.Recv.List[0].Type) + "." + name
					}
					start, end := m.fset.Position(d.Pos()), m.fset.Position(d.End())
					pos := fmt.Sprintf("%s:%d", start.Filename, start.Line)
					fn := funcs[pos]
					if fn == nil {
						fn = &function{key: shortPath(p.path) + "." + name, pos: pos, lines: end.Line - start.Line + 1}
						funcs[pos] = fn
					}
					fn.linked = fn.linked || linked[p.path+"."+name]
				}
			}
		}
	}

	reason := regexp.MustCompile(`^test support|ROADMAP \d|parked completion op`)
	for k, why := range unlinked {
		if !reason.MatchString(why) {
			t.Errorf("unlinked lists %s for %q: say \"test support\" or name the ROADMAP item", k, why)
		}
	}
	hits := map[string]int{}
	var orphans []string
	lines, listed, listedLines := 0, 0, 0
	for _, fn := range funcs {
		k, inTable := rowFor(unlinked, fn.key)
		_, shared := rowFor(testSupport, fn.key)
		switch {
		case inTable && fn.linked:
			hits[k]++
			t.Errorf("unlinked lists %s, but %s (%s) is linked now: take it out of the row", k, fn.key, fn.pos)
		case inTable:
			hits[k]++
			fallthrough
		case shared && !fn.linked:
			listed++
			listedLines += fn.lines
		case !fn.linked:
			orphans = append(orphans, fmt.Sprintf("%s (%s, %d lines)", fn.key, fn.pos, fn.lines))
			lines += fn.lines
		}
	}
	for k := range unlinked {
		if hits[k] == 0 {
			t.Errorf("unlinked lists %s, which names no function: it was deleted", k)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d functions (%d lines) are linked into no binary (delete, call or list each):\n  %s",
			len(orphans), lines, strings.Join(orphans, "\n  "))
	}
	t.Logf("%d functions checked; %d unlinked ones (%d lines) under %d rows and testSupport's", len(funcs), listed, listedLines, len(unlinked))
}

// linkedSymbols builds mains for goos, and bench's servedbench for linux,
// the one system it builds for, and returns the text symbols of the module
// they hold, normalized by symbolName.  A main package's symbols are its own
// binary's main.* ones, under the package's path.
func linkedSymbols(t *testing.T, goos string, mains []string) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	env := append(os.Environ(), "GOOS="+goos, "CGO_ENABLED=0")
	run := func(args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Env = env
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOOS=%s go %s: %v\n%s", goos, strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	bins := map[string]string{} // package path -> binary
	args := []string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}
	for _, p := range mains {
		bins[p] = filepath.Join(dir, path.Base(p))
		args = append(args, "./"+strings.TrimPrefix(p, "milan/"))
	}
	run(args...)
	if goos == "linux" { // servedbench's load generator sleeps on a timerfd
		bins["milan/bench"] = filepath.Join(dir, "servedbench")
		run("build", "-C", "bench", "-gcflags=all=-l", "-o", bins["milan/bench"], ".")
	}

	linked := map[string]bool{}
	for p, bin := range bins {
		sc := bufio.NewScanner(bytes.NewReader(run("tool", "nm", bin)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := symbolName(strings.Join(f[2:], " "))
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = p + "." + rest
			}
			linked[name] = true
		}
	}
	return linked
}

// symbolName turns a linker symbol into the form declarations are keyed by:
// an instantiation under its base name ("obs.(*Ring[go.shape.int]).Push" is
// "obs.Ring.Push") and a method under its type's name, so a value-receiver
// method matches T.M or the (*T).M wrapper.
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")."); j >= 0 {
			s = s[:i] + "." + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// receiverName is the name of a method's receiver type: T for T, *T, T[P]
// and *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return x.(*ast.Ident).Name
		}
	}
}

// shortPath is an import path as unlinked keys it: under internal/ for
// internal packages, under the module root otherwise.
func shortPath(p string) string {
	if s, ok := strings.CutPrefix(p, "milan/internal/"); ok {
		return s
	}
	if s, ok := strings.CutPrefix(p, "milan/"); ok {
		return s
	}
	return p
}
