package workload

import (
	"math"
	"testing"
)

func qjob() QualityJob {
	return QualityJob{
		Base:            FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5},
		DegradedScale:   0.5,
		DegradedQuality: 0.7,
	}
}

func TestQualityJobValidate(t *testing.T) {
	if err := qjob().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := qjob()
	bad.DegradedScale = 0
	if bad.Validate() == nil {
		t.Error("scale 0 accepted")
	}
	bad = qjob()
	bad.DegradedScale = 1
	if bad.Validate() == nil {
		t.Error("scale 1 accepted (not degraded)")
	}
	bad = qjob()
	bad.DegradedQuality = 1
	if bad.Validate() == nil {
		t.Error("quality 1 accepted (not degraded)")
	}
	bad = qjob()
	bad.Base.Alpha = 0.3
	if bad.Validate() == nil {
		t.Error("invalid base accepted")
	}
}

func TestQualityJobChains(t *testing.T) {
	j := qjob().Job(3, 100)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Chains) != 4 {
		t.Fatalf("chains = %d, want 4 (two shapes x two quality levels)", len(j.Chains))
	}
	// First two chains: full quality, full size.
	for i := 0; i < 2; i++ {
		if j.Chains[i].Quality != 1 {
			t.Errorf("chain %d quality = %v", i, j.Chains[i].Quality)
		}
	}
	// Last two: degraded quality, half the processors, hence half the work.
	for i := 2; i < 4; i++ {
		c := j.Chains[i]
		if c.Quality != 0.7 {
			t.Errorf("chain %d quality = %v", i, c.Quality)
		}
		full := j.Chains[i-2]
		for k := range c.Tasks {
			if c.Tasks[k].Procs != full.Tasks[k].Procs/2 {
				t.Errorf("chain %d task %d procs = %d, want %d", i, k, c.Tasks[k].Procs, full.Tasks[k].Procs/2)
			}
			if c.Tasks[k].Duration != full.Tasks[k].Duration {
				t.Errorf("chain %d task %d duration changed", i, k)
			}
			if c.Tasks[k].Deadline != full.Tasks[k].Deadline {
				t.Errorf("chain %d task %d deadline changed", i, k)
			}
		}
		if got, want := chainArea(c), chainArea(full)/2; math.Abs(got-want) > 1e-9 {
			t.Errorf("chain %d area = %v, want %v", i, got, want)
		}
	}
}

func TestQualityJobScaledNeverZeroProcs(t *testing.T) {
	q := QualityJob{
		Base:            FigureJob{X: 16, T: 25, Alpha: 0.0625, Laxity: 0.5}, // task B has 1 proc
		DegradedScale:   0.5,
		DegradedQuality: 0.7,
	}
	j := q.Job(1, 0)
	for _, c := range j.Chains {
		for _, task := range c.Tasks {
			if task.Procs < 1 {
				t.Fatalf("task with %d procs", task.Procs)
			}
		}
	}
}
