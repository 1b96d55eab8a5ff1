package fed

import (
	"reflect"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/qos"
)

// TestFedDiagnosisStampsShardAndClosesLoop drives an overloaded plane
// with a diagnosis sink installed and checks the forensics contract:
// every rejection produces at least one diagnosis, every diagnosis is
// stamped with a real shard id, and replaying a rejected job's suggested
// relaxation through the plane's side-effect-free WhatIf admits it.
func TestFedDiagnosisStampsShardAndClosesLoop(t *testing.T) {
	const procs, shards = 8, 2
	var mu sync.Mutex
	var diags []*core.PlanDiagnosis
	plane, err := New(Config{
		Procs:  procs,
		Shards: shards,
		Options: &core.Options{Diagnosis: func(d *core.PlanDiagnosis) {
			mu.Lock()
			diags = append(diags, d)
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs := smallStream(200, 3, 7) // heavy overload: plenty of rejections
	rejected := make(map[int]core.Job)
	verified := 0
	for _, job := range jobs {
		plane.Observe(job.Release)
		n := len(diags)
		if _, err := plane.Negotiate(job); err == nil {
			continue
		}
		rejected[job.ID] = job
		// Closed loop at the plane level: the rejection's diagnosis
		// explains, WhatIf confirms on the state it was made against.
		for _, d := range diags[n:] {
			if d.Suggestion == nil || verified >= 10 {
				continue
			}
			if _, ok := plane.WhatIf(job, *d.Suggestion); !ok {
				t.Fatalf("job %d: verified suggestion %+v did not admit on replay", job.ID, *d.Suggestion)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no rejected job carried a suggestion to verify")
	}
	if len(rejected) == 0 {
		t.Fatal("degenerate stream: nothing rejected")
	}
	if len(diags) < len(rejected) {
		t.Fatalf("%d diagnoses for %d rejections", len(diags), len(rejected))
	}
	seen := make(map[int]bool)
	for _, d := range diags {
		if d.Shard < 0 || d.Shard >= shards {
			t.Fatalf("diagnosis for job %d carries shard %d (plane has %d)", d.JobID, d.Shard, shards)
		}
		seen[d.JobID] = true
	}
	for id := range rejected {
		if !seen[id] {
			t.Fatalf("rejected job %d has no diagnosis", id)
		}
	}

	if err := plane.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWhatIfProbesDoNotPerturbAdmissions is the isolation
// property under -race: a plane hammered by concurrent WhatIf probes
// while it sequentially admits the
// Figure-4 stream must produce bitwise the same decision stream and
// statistics as an unprobed plane replaying the same stream.
func TestConcurrentWhatIfProbesDoNotPerturbAdmissions(t *testing.T) {
	const procs, shards = 16, 4
	jobs := smallStream(300, 5, 11)

	var ch, ph []qos.Decision
	clean, err := New(Config{Procs: procs, Shards: shards, Observer: collect(&ch)})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		clean.Observe(job.Release)
		clean.Negotiate(job)
	}

	probed, err := New(Config{Procs: procs, Shards: shards, Observer: collect(&ph)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			probes := smallStream(40, 5, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				job := probes[i%len(probes)]
				probed.WhatIf(job, core.WhatIfDelta{ExtraProcs: 2})
				probed.WhatIf(job, core.WhatIfDelta{ExtraDeadline: 50, OnlyChain: 1})
			}
		}(int64(100 + w))
	}
	for _, job := range jobs {
		probed.Observe(job.Release)
		probed.Negotiate(job)
	}
	close(stop)
	wg.Wait()

	if cs, ps := clean.Stats(), probed.Stats(); !reflect.DeepEqual(cs, ps) {
		t.Fatalf("stats diverged under probes\nclean:  %+v\nprobed: %+v", cs, ps)
	}
	if len(ch) != len(ph) {
		t.Fatalf("history lengths differ: clean %d, probed %d", len(ch), len(ph))
	}
	for i := range ch {
		if !reflect.DeepEqual(ch[i], ph[i]) {
			t.Fatalf("decision %d diverged under probes\nclean:  %+v\nprobed: %+v", i, ch[i], ph[i])
		}
	}
	if err := probed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
