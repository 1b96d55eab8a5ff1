package workload

import (
	"fmt"
	"math"

	"milan/internal/core"
)

// QualityJob generalizes the Figure-4 job to the situation Section 5.1
// points at but does not evaluate: "task chains of a tunable application
// are likely to have different overall resource requirements and output
// qualities: the issue then is of maximizing the achieved job quality."
//
// Each job offers a full-quality path (the Figure-4 shapes at their normal
// size) and a degraded path whose tasks are scaled down by DegradedScale in
// processor count (less total work) at output quality DegradedQuality.
type QualityJob struct {
	Base FigureJob
	// DegradedScale shrinks the degraded path's processor counts; must
	// leave at least one processor per task.  Typical: 0.5.
	DegradedScale float64
	// DegradedQuality is the degraded path's output quality in (0, 1).
	DegradedQuality float64
}

// Validate checks the parameters.
func (q QualityJob) Validate() error {
	if err := q.Base.Validate(); err != nil {
		return err
	}
	if !(q.DegradedScale > 0 && q.DegradedScale < 1) {
		return fmt.Errorf("workload: degraded scale %v must be in (0, 1)", q.DegradedScale)
	}
	if !(q.DegradedQuality > 0 && q.DegradedQuality < 1) {
		return fmt.Errorf("workload: degraded quality %v must be in (0, 1)", q.DegradedQuality)
	}
	if q.scaled(q.Base.X) < 1 || q.scaled(q.Base.procsB()) < 1 {
		return fmt.Errorf("workload: degraded scale %v leaves a task with no processors", q.DegradedScale)
	}
	return nil
}

func (q QualityJob) scaled(procs int) int {
	return int(math.Max(1, math.Round(float64(procs)*q.DegradedScale)))
}

// Job materializes a tunable job with four chains: the two full-quality
// Figure-4 shapes and their two degraded counterparts.
func (q QualityJob) Job(id int, release float64) core.Job {
	full := q.Base.chains(release, Tunable)
	var chains []core.Chain
	for _, c := range full {
		c.Quality = 1
		for i := range c.Tasks {
			c.Tasks[i].Quality = 1
		}
		chains = append(chains, c)
	}
	for _, c := range full {
		d := core.Chain{Name: c.Name + "-degraded", Quality: q.DegradedQuality,
			Tasks: append([]core.Task(nil), c.Tasks...)}
		for i := range d.Tasks {
			d.Tasks[i].Procs = q.scaled(d.Tasks[i].Procs)
			d.Tasks[i].Quality = q.DegradedQuality
		}
		chains = append(chains, d)
	}
	return core.Job{
		ID:      id,
		Name:    fmt.Sprintf("quality-%d", id),
		Release: release,
		Chains:  chains,
	}
}
