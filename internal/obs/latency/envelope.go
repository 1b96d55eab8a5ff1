package latency

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
)

// Envelope is the committed baseline the regression sentinel compares
// live latency against: per-phase and end-to-end budgets in nanoseconds.
// A zero budget disarms that comparison.  The canonical way to build one
// is EnvelopeFromTrajectory, which derives budgets from the repo's
// committed benchmark trajectory (BENCH_trajectory.jsonl) so "regression"
// always means "worse than what we shipped", not a hand-tuned constant.
type Envelope struct {
	// E2E is the end-to-end admission budget in nanoseconds.
	E2E int64 `json:"e2e_ns"`
	// Phase holds per-phase budgets in PhaseNames order.
	Phase [NumPhases]int64 `json:"phase_ns"`
}

// trajectoryRow mirrors cmd/benchdiff's row schema: p99 is optional and
// decodes as -1 when absent (no phantom budget).
type trajectoryRow struct {
	Name       string   `json:"name"`
	NsPerOp    float64  `json:"ns_per_op"`
	P99NsPerOp *float64 `json:"p99_ns_per_op"`
}

// EnvelopeFromTrajectory derives a baseline envelope from the latest
// trajectory row whose benchmark name contains match: the budget is the
// row's p99 when recorded (falling back to mean ns/op) times slack.
// Each phase the row measured — route, probe, plan, reserve and ack —
// gets the full budget: a single phase consuming more than the whole
// committed envelope is the regression signal.  Journal and E2E stay
// disarmed, since no committed row has a disk in it and the journal phase
// includes the wait for the flush.
func EnvelopeFromTrajectory(path, match string, slack float64) (Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return Envelope{}, err
	}
	defer f.Close()
	if slack <= 0 {
		slack = 1
	}
	var last *trajectoryRow
	err = obs.Lines(f, "latency: trajectory "+path, func(raw []byte) error {
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			return nil
		}
		var row trajectoryRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return err
		}
		if strings.Contains(row.Name, match) {
			last = &row
		}
		return nil
	})
	if err != nil {
		return Envelope{}, err
	}
	if last == nil {
		return Envelope{}, fmt.Errorf("latency: no trajectory row matches %q in %s", match, path)
	}
	base := last.NsPerOp
	if last.P99NsPerOp != nil && *last.P99NsPerOp > 0 {
		base = *last.P99NsPerOp
	}
	if base <= 0 {
		return Envelope{}, fmt.Errorf("latency: trajectory row %q has no usable latency", last.Name)
	}
	var env Envelope
	for i := range env.Phase {
		if phase.Phase(i) != phase.Journal {
			env.Phase[i] = int64(base * slack)
		}
	}
	return env, nil
}
