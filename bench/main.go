// Command bench measures the served admission: a client round-trip through
// the stack cmd/junctiond serves — durable.Plane on the real filesystem
// behind qosnet on loopback — driven by seed-generated Figure-4 job streams.
//
// The benchmark driver runs one workload per invocation:
//
//	bash bench/run.sh --workload steady_wire --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload every workload runs, rounds interleaved, followed by the
// traced passes, and the results are written as one JSON file that
// -compare a.json b.json judges against BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// rounds is how many fresh stacks share a run's --seconds; a metric's value
// is the median over them.
const rounds = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	compare  bool
}

// roundBudget is each round's share of the measured seconds.
func (o options) roundBudget() time.Duration {
	return time.Duration(o.seconds / rounds * float64(time.Second))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the job streams and the open loop's schedule")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.StringVar(&o.out, "out", "", "without -workload: results file (default bench/out/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files, given as arguments, against BENCHMARK.json's bounds")
	flag.Parse()
	code, err := realMain(o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func realMain(o options, args []string) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	if o.compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), args[0], args[1])
	}
	build := filepath.Join(root, ".bench_build")
	env := &environment{root: root, walRoot: filepath.Join(build, fmt.Sprintf("wal-%d", os.Getpid())), junctiond: filepath.Join(build, "junctiond")}
	if err := os.MkdirAll(env.walRoot, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(env.walRoot)
	// The parity check always runs against the daemon built from this
	// checkout; the go build cache makes the repeat builds cheap.
	if err := buildJunctiond(root, env.junctiond); err != nil {
		return 2, err
	}
	if o.workload == "" {
		return env.suite(o)
	}
	s := findWorkload(o.workload)
	if s == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	return env.one(s, o)
}

// findRoot walks up from the working directory to the checkout's root, the
// directory that holds BENCHMARK.json and the module the benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if exists(filepath.Join(dir, "BENCHMARK.json")) && exists(filepath.Join(dir, "cmd", "junctiond")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside a milan checkout (no BENCHMARK.json beside cmd/junctiond)")
		}
		dir = parent
	}
}

func exists(path string) bool { _, err := os.Stat(path); return err == nil }

// environment is what every run of this process shares.
type environment struct {
	root, walRoot, junctiond string
}

// result is one workload's outcome, as the driver reads it and as the
// results file keeps it.
type result struct {
	Name      string    `json:"name"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	EndToEnd  []measure `json:"end_to_end,omitempty"`
	PerLayer  []measure `json:"per_layer,omitempty"`
}

func (r *result) absorb(attempted, failed int, failures []string) {
	r.Attempted += attempted
	r.Failed += failed
	r.Failures = append(r.Failures, failures...)
	r.Correct = r.Failed == 0
}

// checkParity holds the in-process stack to the real junctiond on the
// workload's stream.
func (e *environment) checkParity(s *spec, seed int64, res *result) error {
	child, inproc, err := parity(s, seed, e.junctiond, e.walRoot)
	if err != nil {
		return fmt.Errorf("%s: junctiond parity: %w", s.Name, err)
	}
	if child != inproc {
		res.absorb(parityJobs, parityJobs, []string{fmt.Sprintf("junctiond decided differently from the in-process stack: digest %016x, in-process %016x", child, inproc)})
	}
	fmt.Printf("%s: junctiond parity over %d jobs: digest %016x\n", s.Name, parityJobs, child)
	return nil
}

// traced runs the workload's ladder and traced passes.  r is the workload's
// untraced rounds, whose unbounded numbers go with the per-layer metrics.
func (e *environment) traced(r *run, o options, res *result) error {
	l := &layers{
		s: r.s, seed: o.seed, walRoot: e.walRoot,
		jobs:     max(64, int(float64(r.s.TraceOps)*o.seconds/20)),
		traceDir: filepath.Join(e.root, "bench", "out"),
	}
	if err := l.run(); err != nil {
		return fmt.Errorf("%s: traced run: %w", r.s.Name, err)
	}
	res.absorb(l.attempted, l.failed, l.failures)
	res.PerLayer = append(l.out, r.unbounded()...)
	return nil
}

// one is the driver's contract: one workload, one result line.  The traced
// run measures one untraced round beside the ladder, the untraced run five.
func (e *environment) one(s *spec, o options) (int, error) {
	res := result{Name: s.Name, Correct: true}
	if err := e.checkParity(s, o.seed, &res); err != nil {
		return 2, err
	}
	r, err := newRun(s, o.seed, o.roundBudget(), e.walRoot)
	if err != nil {
		return 2, err
	}
	n := rounds
	if o.trace != 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if err := r.round(); err != nil {
			return 2, err
		}
	}
	res.absorb(r.attempted, r.failed, r.failures)
	metrics := &res.EndToEnd
	if o.trace != 0 {
		if err := e.traced(r, o, &res); err != nil {
			return 2, err
		}
		metrics = &res.PerLayer
	} else {
		res.EndToEnd = r.endToEnd()
	}
	fmt.Printf("\n%s: %s", s.Name, r.info())
	printResult(&res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range *metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// resultsFile is what a whole-suite run writes and -compare reads.
type resultsFile struct {
	// Claim is null: the benchmark's own change claims no gain.
	Claim      *string  `json:"claim"`
	Machine    string   `json:"machine"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Rounds     int      `json:"rounds"`
	Workloads  []result `json:"workloads"`
}

// suite runs every workload: the untraced rounds interleaved (w1 w2 w3 w4,
// five times), so that a noisy phase of the machine lands on a minority of
// any one workload's rounds, and then each workload's traced run.
func (e *environment) suite(o options) (int, error) {
	file := resultsFile{
		Machine: machine(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Rounds: rounds,
		Workloads: make([]result, len(workloads)),
	}
	runs := make([]*run, len(workloads))
	for i := range workloads {
		s := &workloads[i]
		file.Workloads[i] = result{Name: s.Name, Correct: true}
		if err := e.checkParity(s, o.seed, &file.Workloads[i]); err != nil {
			return 2, err
		}
		var err error
		if runs[i], err = newRun(s, o.seed, o.roundBudget(), e.walRoot); err != nil {
			return 2, err
		}
	}
	for k := 0; k < rounds; k++ {
		for _, r := range runs {
			if err := r.round(); err != nil {
				return 2, err
			}
		}
	}
	code := 0
	for i, r := range runs {
		res := &file.Workloads[i]
		res.absorb(r.attempted, r.failed, r.failures)
		res.EndToEnd = r.endToEnd()
		if err := e.traced(r, o, res); err != nil {
			return 2, err
		}
		fmt.Printf("\n%s: %s", r.s.Name, r.info())
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join(e.root, "bench", "out", "results.json")
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 2, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 2, err
	}
	fmt.Println("results written to", path)
	return code, nil
}

// printResult prints every metric by name and unit, with the per-round
// values and quartiles behind each median.
func printResult(res *result) {
	fmt.Printf("\n%s: attempted %d, failed %d (failed_ratio %g)\n", res.Name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, m := range slices.Concat(res.EndToEnd, res.PerLayer) {
		line := fmt.Sprintf("  %-32s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if len(m.Rounds) > 0 {
			q1, q3 := quartiles(m.Rounds)
			line += fmt.Sprintf(" q1 %.6g q3 %.6g rounds %.6g", q1, q3, m.Rounds)
		}
		if m.LapMedian != 0 {
			line += fmt.Sprintf(" lap median %.6g", m.LapMedian)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf(" (%d samples a lap)", m.Samples)
		}
		fmt.Println(line)
	}
}

func machine() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %s/%s", model, runtime.GOOS, runtime.GOARCH)
}
