package qosnet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"milan/internal/allocs"
	"milan/internal/core"
	"milan/internal/frame"
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

// distinctJob is the i-th job of a stream no two of whose jobs are alike:
// Figure-4 jobs under their own names, every third tagged with a tenant and
// a class.  Runs of 40 of them take turns with runs of 40 of two shapes that
// each run one half of a job chunk out before the other — one chain of 12
// tasks, 12 chains of one task — so that a connection, or each of eight
// sharing the stream, starts chunks for either half alone, and with runs of
// 40 Figure-4 jobs whose chain and tenant names are their own.  So chain and
// tenant names repeat run after run (shape1, width-3, tenant-5: interned)
// and change from job to job (stage names, a renamed run's chains and
// tenant: carved once the table is full).  Every 500th job is one 200-task
// chain, longer than any chunk.
func distinctJob(i int) core.Job {
	j := fig4.Job(i, float64(i)*1.5, workload.Tunable)
	if i%3 == 0 {
		j.Tenant, j.Class = fmt.Sprintf("tenant-%d", i%7), i%4
	}
	switch {
	case i%500 == 250:
		j.Chains = []core.Chain{{Name: "pipeline", Quality: 0.5, Tasks: stages(fmt.Sprint(i), 200, j.Release)}}
	case i/40%4 == 1:
		j.Chains = []core.Chain{{Name: "task-heavy", Quality: 0.5, Tasks: stages(fmt.Sprint(i), 12, j.Release)}}
	case i/40%4 == 2:
		j.Chains = make([]core.Chain, 12)
		for c := range j.Chains {
			j.Chains[c] = core.Chain{Name: fmt.Sprintf("width-%d", c), Quality: float64(c+1) / 12, Tasks: stages(fmt.Sprintf("%d-%d", i, c), 1, j.Release)}
		}
	case i/40%4 == 3:
		for c := range j.Chains {
			j.Chains[c].Name = fmt.Sprintf("%s-of-%d", j.Chains[c].Name, i)
		}
		j.Tenant = fmt.Sprintf("tenant-of-%d", i)
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

// TestInternTableStaysAtItsBound: a connection that sends more distinct
// chain names than its table holds gets every name back right, the table
// stops at internMax, and a name it holds is decoded as the one string it
// holds however often it comes again.
func TestInternTableStaysAtItsBound(t *testing.T) {
	var mem carver
	var first string // shape1 as the table holds it
	for i := 0; i < 4*internMax; i++ {
		job := fig4.Job(i, float64(i), workload.Tunable)
		job.Chains[1].Name = fmt.Sprintf("chain-%d", i) // a name no other request repeats
		job.Tenant = fmt.Sprintf("tenant-%d", i%3)
		buf, err := appendRequest(nil, &request{op: opNegotiate, job: job})
		if err != nil {
			t.Fatal(err)
		}
		var got request
		if err := decodeRequest(buf[frame.HeaderLen:], &got, &mem); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.job, job) {
			t.Fatalf("request %d decoded as\n %+v\nsent\n %+v", i, got.job, job)
		}
		if len(mem.interned) > internMax {
			t.Fatalf("request %d: %d names interned, bound %d", i, len(mem.interned), internMax)
		}
		if i == 0 {
			first = got.job.Chains[0].Name
		} else if unsafe.StringData(got.job.Chains[0].Name) != unsafe.StringData(first) {
			t.Fatalf("request %d: shape1 decoded into a fresh string, not the interned one", i)
		}
	}
	if len(mem.interned) != internMax {
		t.Fatalf("%d names interned after %d distinct ones, want the table full at %d", len(mem.interned), 4*internMax, internMax)
	}
}

// TestTaskNamesStayOutOfTheInternTable sends, first on a connection, a
// pipeline whose every stage has a name of its own, more of them than the
// table holds.  Task names are carved, not interned, so the table is left
// to the chain and tenant names the next requests repeat.
func TestTaskNamesStayOutOfTheInternTable(t *testing.T) {
	var mem carver
	decode := func(job core.Job) core.Job {
		t.Helper()
		buf, err := appendRequest(nil, &request{op: opNegotiate, job: job})
		if err != nil {
			t.Fatal(err)
		}
		var got request
		if err := decodeRequest(buf[frame.HeaderLen:], &got, &mem); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.job, job) {
			t.Fatalf("decoded as\n %+v\nsent\n %+v", got.job, job)
		}
		return got.job
	}
	pipeline := fig4.Job(0, 0, workload.Tunable)
	stages := make([]core.Task, 2*internMax)
	for i := range stages {
		stages[i] = pipeline.Chains[0].Tasks[0]
		stages[i].Name = fmt.Sprintf("%d-%d", i/10, i%10)
	}
	pipeline.Chains[0].Tasks = stages
	pipeline.Tenant = "acme"
	first := decode(pipeline)
	if len(mem.interned) != 3 {
		t.Fatalf("%d names interned after one pipeline, want its 2 chain names and its tenant", len(mem.interned))
	}
	next := fig4.Job(1, 1, workload.Tunable)
	next.Tenant = "acme"
	got := decode(next)
	if unsafe.StringData(got.Chains[0].Name) != unsafe.StringData(first.Chains[0].Name) ||
		unsafe.StringData(got.Tenant) != unsafe.StringData(first.Tenant) {
		t.Fatal("the next request's chain and tenant names were carved afresh, not interned")
	}
}

// TestFreshNamesAllocationBudget counts the chunks one connection's decoder
// starts for Figure-4 requests whose chain and tenant names are all new,
// once the intern table is full, so that every name is carved: a job name
// of 17 bytes from the job chunk, and two chain names and a tenant of 14
// each, 42 bytes a request, from chunks of kept names.  The job chunk's
// chains and tasks run short first, so the 512 counted requests start 32
// job chunks, as a stream whose names repeat does, and 24 requests fill a
// 1 KiB chunk of kept names: 21.  The counts are exact: a layout that cut
// names elsewhere, or interned past internMax, reads as different ones.
func TestFreshNamesAllocationBudget(t *testing.T) {
	const runs = 512
	var mem carver
	payloads := make([][]byte, internMax+1+runs)
	for i := range payloads {
		job := fig4.Job(1000+i, float64(i), workload.Tunable)
		for c := range job.Chains {
			job.Chains[c].Name = fmt.Sprintf("%s-of-%d", job.Chains[c].Name, 1000+i)
		}
		job.Tenant = fmt.Sprintf("tenant-of-%d", 1000+i)
		buf, err := appendRequest(nil, &request{op: opNegotiate, job: job})
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = buf[frame.HeaderLen:]
	}
	next := 0
	var req request
	decode := func() {
		if err := decodeRequest(payloads[next], &req, &mem); err != nil {
			t.Fatalf("request %d: %v", next, err)
		}
		next++
	}
	for next < internMax { // three new names each: the table fills
		decode()
	}
	if len(mem.interned) != internMax {
		t.Fatalf("%d names interned before the count, want the table full at %d", len(mem.interned), internMax)
	}
	const jobChunks, keptChunks = 32, 21
	_, at := allocs.Count(runs, decode, "milan/internal/qos/qosnet.carve", "milan/internal/qos/qosnet.(*carver).keep")
	if at[0] != jobChunks || at[1] != keptChunks {
		t.Errorf("%d requests of fresh names started %d job chunks and %d of kept names, want exactly %d and %d",
			runs, at[0], at[1], jobChunks, keptChunks)
	}
}

// TestKeptNamesPinNoJobChunk decodes, on one connection, jobs of two
// chains of three tasks under one tenant, keeps each job's tenant string as
// the plane's live set keeps a grant's, and drops the jobs.  Six tasks a
// job leave a chunk's task part short partway through every eleventh job,
// whose second chain's tasks then come from a fresh chunk, so each job
// chunk points into the next.  The tenant and chain names, which the
// intern table and the kept strings hold for as long as the connection
// lives, are cut from chunks that hold no pointers, so every job chunk but
// the one still being cut is collected.
func TestKeptNamesPinNoJobChunk(t *testing.T) {
	const jobs = 400
	var mem carver
	var req request
	var tenants []string
	var chunks int
	var collected atomic.Int32
	for i := 0; i < jobs; i++ {
		job := core.Job{ID: i, Name: fmt.Sprintf("job-%d", i), Tenant: "acme"}
		for c, name := range []string{"shape1", "shape2"} {
			job.Chains = append(job.Chains, core.Chain{Name: name, Quality: 0.5, Tasks: stages(fmt.Sprint(c), 3, 0)})
		}
		buf, err := appendRequest(nil, &request{op: opNegotiate, job: job})
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeRequest(buf[frame.HeaderLen:], &req, &mem); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		tenants = append(tenants, req.job.Tenant)
		// A job whose chains are the first cut from its chunk's chain part
		// sits at the chunk's start.
		if len(mem.chains)+len(req.job.Chains) == chainChunk {
			chunks++
			runtime.SetFinalizer((*jobChunk)(unsafe.Pointer(&req.job.Chains[0])), func(*jobChunk) { collected.Add(1) })
		}
	}
	req = request{}
	want := int32(chunks - 1)
	for try := 0; try < 50 && collected.Load() < want; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	// 63 tasks of a chunk's 64 are used: 2 400 tasks take 39 chunks.
	if got := collected.Load(); got != want || chunks != 39 {
		t.Fatalf("%d jobs started %d job chunks, of which %d were collected once the jobs were dropped; want 39, all but the current one collected",
			jobs, chunks, got)
	}
	runtime.KeepAlive(tenants)
	runtime.KeepAlive(&mem)
}

// TestJobChunkFillsItsSizeClass: a job chunk and the 8-byte header the
// runtime puts before an object over 512 bytes that holds pointers make
// 6 784 bytes, one of the runtime's size classes (go1.22 and later), so
// none of the bytes a kept job pins goes unused.
func TestJobChunkFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(jobChunk{}); size != 6776 {
		t.Fatalf("a job chunk is %d bytes, want 6 776", size)
	}
}
