package qosnet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"milan/internal/core"
	"milan/internal/qos"
	"milan/internal/workload"
)

// keeper is a served arbitrator that keeps every job it is handed, the way
// an observer, an SLO hook or a forensic ring may, and refuses them all.
type keeper struct {
	mu   sync.Mutex
	kept map[int]core.Job
}

func (k *keeper) Negotiate(job core.Job) (*qos.Grant, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.kept[job.ID] = job
	return nil, qos.ErrRejected
}
func (k *keeper) NegotiateDAG(core.DAGJob) (*qos.Grant, error) { return nil, qos.ErrRejected }
func (k *keeper) Observe(float64)                              {}
func (k *keeper) Stats() core.Stats                            { return core.Stats{} }
func (k *keeper) Utilization(_, _ float64) float64             { return 0 }

// distinctJob is the i-th job of a stream no two of whose jobs are alike:
// Figure-4 jobs under their own names, every third tagged with a tenant and
// a class.  Runs of 40 of them take turns with runs of 40 of two shapes that
// each run one half of a job chunk out before the other — one chain of 12
// tasks, 12 chains of one task — so that a connection, or each of eight
// sharing the stream, starts chunks for either half alone.  Every 500th job
// is one 200-task chain, longer than any chunk.
func distinctJob(i int) core.Job {
	j := fig4.Job(i, float64(i)*1.5, workload.Tunable)
	if i%3 == 0 {
		j.Tenant, j.Class = fmt.Sprintf("tenant-%d", i%7), i%4
	}
	switch {
	case i%500 == 250:
		j.Chains = []core.Chain{{Name: "pipeline", Quality: 0.5, Tasks: stages(fmt.Sprint(i), 200, j.Release)}}
	case i/40%3 == 1:
		j.Chains = []core.Chain{{Name: "task-heavy", Quality: 0.5, Tasks: stages(fmt.Sprint(i), 12, j.Release)}}
	case i/40%3 == 2:
		j.Chains = make([]core.Chain, 12)
		for c := range j.Chains {
			j.Chains[c] = core.Chain{Name: fmt.Sprintf("width-%d", c), Quality: float64(c+1) / 12, Tasks: stages(fmt.Sprintf("%d-%d", i, c), 1, j.Release)}
		}
	}
	return j
}

// stages is n tasks named after key, due one after another from release.
func stages(key string, n int, release float64) []core.Task {
	tasks := make([]core.Task, n)
	for t := range tasks {
		tasks[t] = core.Task{Name: fmt.Sprintf("stage-%s-%d", key, t), Procs: 1 + t%8, Duration: 1, Deadline: release + float64(10*(t+1))}
	}
	return tasks
}

// TestDecodedJobOutlivesItsConnection: the memory a decoded job points into
// is carved and never recycled, so a job the served arbitrator kept is still
// what the client sent once thousands more have been decoded on the same
// connection, on others beside it, and after every connection has closed.
func TestDecodedJobOutlivesItsConnection(t *testing.T) {
	const jobs = 10000
	for _, conns := range []int{1, 8} {
		k := &keeper{kept: make(map[int]core.Job, jobs)}
		srv, err := ListenAndServe(k, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli, err := Dial(srv.Addr().String())
				if err != nil {
					t.Errorf("connection %d: %v", c, err)
					return
				}
				defer cli.Close()
				for i := c; i < jobs; i += conns {
					if _, err := cli.Negotiate(distinctJob(i)); !errors.Is(err, qos.ErrRejected) {
						t.Errorf("job %d: %v", i, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(k.kept) != jobs {
			t.Fatalf("%d connections: kept %d jobs of %d", conns, len(k.kept), jobs)
		}
		for i := 0; i < jobs; i++ {
			if got, want := k.kept[i], distinctJob(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d connections: job %d changed after it was decoded:\n kept %+v\n sent %+v", conns, i, got, want)
			}
		}
	}
}
