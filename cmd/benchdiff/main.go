// Command benchdiff gates benchmark regressions against the checked-in
// trajectory baseline.
//
// BENCH_trajectory.jsonl at the repository root records one JSON row per
// benchmark observation — name, ns/op, allocs/op, and a free-form note
// (commit, date, machine).  The file is append-only: the latest row for
// each benchmark name is the current baseline, and the history behind it
// is the performance trajectory of the project.
//
// benchdiff reads standard `go test -bench` output (a file argument, or
// stdin when the argument is "-"), strips the -GOMAXPROCS suffix from
// each name, and compares every measured benchmark against its baseline:
//
//	go test -run '^$' -bench Admit -benchmem ./internal/fed |
//	    benchdiff -baseline BENCH_trajectory.jsonl -
//
// The run fails (exit 1) when any benchmark regresses more than
// -threshold (default 15%) in ns/op, or allocates more per op than its
// baseline at all — allocation counts are deterministic, so any increase
// is a real regression, not noise.  Benchmarks with no baseline row are
// reported as new and do not fail the gate; refresh the baseline with
// -append after an intentional change.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"milan/internal/obs"
)

type row struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// P99NsPerOp is the p99 latency a benchmark reported via
	// b.ReportMetric(..., "p99-ns/op"); -1 means "not measured" — the
	// same unknown convention AllocsPerOp uses, so a row without the
	// metric never gates against a phantom zero.
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// MarshalJSON omits the p99 field entirely when unknown (-1), keeping
// appended trajectory rows free of sentinel values.
func (rw row) MarshalJSON() ([]byte, error) {
	aux := struct {
		Name        string   `json:"name"`
		NsPerOp     float64  `json:"ns_per_op"`
		AllocsPerOp int64    `json:"allocs_per_op"`
		P99NsPerOp  *float64 `json:"p99_ns_per_op,omitempty"`
		Note        string   `json:"note,omitempty"`
	}{rw.Name, rw.NsPerOp, rw.AllocsPerOp, nil, rw.Note}
	if rw.P99NsPerOp >= 0 {
		aux.P99NsPerOp = &rw.P99NsPerOp
	}
	return json.Marshal(aux)
}

// parseBenchOutput extracts benchmark rows from `go test -bench` text.
// A result line looks like
//
//	BenchmarkShardedAdmit/shards=8-16   35697   12179 ns/op   867 B/op   15 allocs/op
//
// Lines that do not start with "Benchmark" (headers, PASS, ok) are
// skipped.  The trailing -N GOMAXPROCS suffix is stripped so names are
// stable across machines.
func parseBenchOutput(r io.Reader) ([]row, error) {
	var rows []row
	err := obs.Lines(r, "benchdiff: bench output", func(raw []byte) error {
		fields := strings.Fields(string(raw))
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			return nil
		}
		rw := row{Name: trimProcSuffix(fields[0]), AllocsPerOp: -1, P99NsPerOp: -1}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("bad value %q in %q", fields[i], raw)
			}
			switch fields[i+1] {
			case "ns/op":
				rw.NsPerOp, ok = v, true
			case "allocs/op":
				rw.AllocsPerOp = int64(v)
			case "p99-ns/op":
				rw.P99NsPerOp = v
			}
		}
		if ok {
			rows = append(rows, rw)
		}
		return nil
	})
	return rows, err
}

// trimProcSuffix drops the "-N" GOMAXPROCS suffix go test appends to
// benchmark names, leaving sub-benchmark paths intact.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// latestBaseline reads the trajectory JSONL and keeps the last row per
// benchmark name — the file is append-only history.  Rows written before
// allocation tracking existed have no allocs_per_op key at all; those
// decode as -1 ("unknown"), not 0, so an old baseline never gates a
// candidate's allocations against a phantom zero.
func latestBaseline(r io.Reader) (map[string]row, error) {
	base := make(map[string]row)
	err := obs.Lines(r, "benchdiff: baseline", func(raw []byte) error {
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			return nil
		}
		var aux struct {
			Name        string   `json:"name"`
			NsPerOp     float64  `json:"ns_per_op"`
			AllocsPerOp *int64   `json:"allocs_per_op"`
			P99NsPerOp  *float64 `json:"p99_ns_per_op"`
			Note        string   `json:"note"`
		}
		if err := json.Unmarshal(raw, &aux); err != nil {
			return err
		}
		if aux.Name == "" {
			return errors.New("missing name")
		}
		rw := row{Name: aux.Name, NsPerOp: aux.NsPerOp, AllocsPerOp: -1, P99NsPerOp: -1, Note: aux.Note}
		if aux.AllocsPerOp != nil {
			rw.AllocsPerOp = *aux.AllocsPerOp
		}
		if aux.P99NsPerOp != nil {
			rw.P99NsPerOp = *aux.P99NsPerOp
		}
		base[rw.Name] = rw
		return nil
	})
	return base, err
}

type verdict struct {
	row
	base     row
	known    bool
	nsRatio  float64
	p99Ratio float64
	regress  bool
	whyAlloc bool
	whyP99   bool
}

// compare judges each candidate against its baseline.  ns/op regresses
// when it exceeds baseline*(1+threshold); allocs/op regresses on any
// increase (allocation counts are deterministic).  A baseline recorded
// without -benchmem (allocs -1) does not gate allocations.
func compare(base map[string]row, cand []row, threshold float64) []verdict {
	out := make([]verdict, 0, len(cand))
	for _, c := range cand {
		v := verdict{row: c}
		if b, ok := base[c.Name]; ok {
			v.base, v.known = b, true
			if b.NsPerOp > 0 {
				v.nsRatio = c.NsPerOp / b.NsPerOp
				v.regress = v.nsRatio > 1+threshold
			}
			if b.AllocsPerOp >= 0 && c.AllocsPerOp > b.AllocsPerOp {
				v.regress, v.whyAlloc = true, true
			}
			// The p99 gate only arms when BOTH sides measured it: a
			// baseline written before tail tracking (or a candidate run
			// without it) decodes as -1 and never gates.
			if b.P99NsPerOp > 0 && c.P99NsPerOp >= 0 {
				v.p99Ratio = c.P99NsPerOp / b.P99NsPerOp
				if v.p99Ratio > 1+threshold {
					v.regress, v.whyP99 = true, true
				}
			}
		}
		out = append(out, v)
	}
	return out
}

func appendRows(path string, rows []row, note string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rw := range rows {
		rw.Note = note
		if err := enc.Encode(rw); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	baseline := flag.String("baseline", "BENCH_trajectory.jsonl", "trajectory JSONL; latest row per name is the baseline")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op regression before failing")
	doAppend := flag.Bool("append", false, "append the candidate rows to the baseline file instead of gating")
	note := flag.String("note", "", "note to record with -append rows")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] <bench-output-file | ->")
		os.Exit(2)
	}

	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cand, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	if len(cand) == 0 {
		fatal(fmt.Errorf("benchdiff: no benchmark results in input"))
	}

	if *doAppend {
		if err := appendRows(*baseline, cand, *note); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: appended %d rows to %s\n", len(cand), *baseline)
		return
	}

	bf, err := os.Open(*baseline)
	if err != nil {
		fatal(err)
	}
	base, err := latestBaseline(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}

	failed := 0
	for _, v := range compare(base, cand, *threshold) {
		switch {
		case !v.known:
			fmt.Printf("NEW   %-48s %12.0f ns/op %6d allocs/op (no baseline)\n",
				v.Name, v.NsPerOp, v.AllocsPerOp)
		case v.regress && v.whyAlloc:
			failed++
			fmt.Printf("FAIL  %-48s %6d allocs/op, baseline %d (any increase fails)\n",
				v.Name, v.AllocsPerOp, v.base.AllocsPerOp)
		case v.regress && v.whyP99:
			failed++
			fmt.Printf("FAIL  %-48s %12.0f p99-ns/op, baseline %.0f (%+.1f%% > %.0f%% threshold)\n",
				v.Name, v.P99NsPerOp, v.base.P99NsPerOp, 100*(v.p99Ratio-1), 100**threshold)
		case v.regress:
			failed++
			fmt.Printf("FAIL  %-48s %12.0f ns/op, baseline %.0f (%+.1f%% > %.0f%% threshold)\n",
				v.Name, v.NsPerOp, v.base.NsPerOp, 100*(v.nsRatio-1), 100**threshold)
		default:
			fmt.Printf("ok    %-48s %12.0f ns/op (%+.1f%%) %6d allocs/op\n",
				v.Name, v.NsPerOp, 100*(v.nsRatio-1), v.AllocsPerOp)
		}
	}
	if failed > 0 {
		fmt.Printf("benchdiff: %d benchmark(s) regressed\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
