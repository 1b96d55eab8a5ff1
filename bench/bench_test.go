package main

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// miniature shrinks a workload so that all four, ladder included, run in a
// few seconds with the oracle on.
func miniature(s spec) *spec {
	s.Warmup, s.Lap, s.TraceOps = 256, 128, 300
	return &s
}

// TestMiniature drives every workload end to end and up the ladder, and
// audits the names: what the harness prints is what BENCHMARK.json declares.
func TestMiniature(t *testing.T) {
	var decl benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ds []metricDecl) map[string]string {
		units := map[string]string{}
		for _, d := range ds {
			if !name.MatchString(d.Name) {
				t.Errorf("BENCHMARK.json: bad metric name %q", d.Name)
			}
			if _, dup := units[d.Name]; dup {
				t.Errorf("BENCHMARK.json: metric %q declared twice", d.Name)
			}
			units[d.Name] = d.Unit
		}
		return units
	}
	audit := func(what string, printed []measure, units map[string]string) {
		t.Helper()
		seen := map[string]bool{}
		for _, m := range printed {
			seen[m.Name] = true
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s prints %s, which BENCHMARK.json does not declare", what, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s prints %s in %s, BENCHMARK.json says %s", what, m.Name, m.Unit, unit)
			}
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("%s does not print %s, which BENCHMARK.json declares", what, n)
			}
		}
	}
	endToEnd, perLayer := declared(decl.EndToEnd), declared(decl.PerLayer)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		full := &workloads[i]
		if w.Name != full.Name || w.Why != full.Why || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, full.Name, full.Why)
		}
		s := miniature(*full)
		t.Run(s.Name, func(t *testing.T) {
			walRoot := t.TempDir()
			r, err := newRun(s, 7, 100*time.Millisecond, walRoot)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.round(); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("round: %d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			audit("the untraced run", r.endToEnd(), endToEnd)

			l := &layers{s: s, seed: 7, jobs: s.TraceOps, walRoot: walRoot, traceDir: walRoot}
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 || l.attempted == 0 {
				t.Errorf("ladder: %d of %d operations failed: %v", l.failed, l.attempted, l.failures)
			}
			audit("the traced run", append(l.out, r.unbounded()...), perLayer)
		})
	}
}

// TestOracleCatches makes sure the oracle is not blind: a grant that misses
// its deadline, and one that does not fit the machine, must both fail.
func TestOracleCatches(t *testing.T) {
	s := miniature(workloads[0])
	st, err := newStream(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	arb, err := newRung("qos", s.Procs, "")
	if err != nil {
		t.Fatal(err)
	}
	job := st.next()
	g, err := arb.Negotiate(job)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkGrant(job, g); msg != "" {
		t.Fatalf("honest grant refused: %s", msg)
	}
	late := *g
	late.Placement.Tasks = append(late.Placement.Tasks[:0:0], g.Placement.Tasks...)
	last := &late.Placement.Tasks[len(late.Placement.Tasks)-1]
	shift := job.Chains[g.Chain].Tasks[last.Task].Deadline - last.Start + 1
	last.Start, last.Finish = last.Start+shift, last.Finish+shift
	if checkGrant(job, &late) == "" {
		t.Error("a grant finishing after its deadline passed the oracle")
	}

	o := newOracle(s, true)
	for i := 0; i <= s.Procs; i++ {
		l := lap{jobs: []Job{job}, observe: []float64{0}, grants: []*Grant{g}, errs: []error{nil}}
		o.verify(&l)
	}
	if o.failed == 0 {
		t.Error("the same reservation granted past the machine's capacity passed the oracle")
	}
}

// TestParity checks the in-process stack against the real junctiond binary,
// built from this checkout.
func TestParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns junctiond")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "junctiond")
	if err := buildJunctiond(root, bin); err != nil {
		t.Fatal(err)
	}
	s := &workloads[2] // tenants and rejections: the richest records
	child, inproc, err := parity(s, 3, bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if child != inproc {
		t.Errorf("junctiond digest %016x, in-process %016x", child, inproc)
	}
}

// TestVerdict pins how -compare judges: the placement ratios exactly where a
// seed fixes them, every other ratio by an absolute tolerance, the rest by
// BENCHMARK.json's share of the value.
func TestVerdict(t *testing.T) {
	ratio := metricDecl{Name: "admit_ratio", Unit: "ratio", Better: "higher", Bound: 0.05}
	latency := metricDecl{Name: "admit_p50_us", Unit: "us", Better: "lower", Bound: 0.25}
	at := func(v float64) measure { return measure{Value: v, Rounds: []float64{v, v, v}} }
	for _, c := range []struct {
		d     metricDecl
		exact bool
		a, b  float64
		want  string
	}{
		{ratio, true, 0.9, 0.9, "pass"},
		{ratio, true, 0.9, 0.8999, "worse"},
		{ratio, true, 0.9, 0.95, "pass"},
		{ratio, false, 0.9, 0.895, "pass"},
		{ratio, false, 0.9, 0.88, "worse"}, // inside the 5 % share, outside 0.01
		{latency, false, 100, 120, "pass"},
		{latency, false, 100, 126, "worse"},
	} {
		if got := verdict(c.d, c.exact, at(c.a), at(c.b)); got != c.want {
			t.Errorf("%s exact=%v %g -> %g: %s, want %s", c.d.Name, c.exact, c.a, c.b, got, c.want)
		}
	}
	noisy := measure{Value: 100, Rounds: []float64{60, 100, 140}}
	if got := verdict(latency, false, at(100), noisy); got != "unresolved" {
		t.Errorf("rounds spread wider than the bound: %s, want unresolved", got)
	}
}
