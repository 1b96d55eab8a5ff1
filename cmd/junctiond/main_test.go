package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"milan/internal/calypso"
	"milan/internal/durable/vfs"
	"milan/internal/junction"
	"milan/internal/obs"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// TestStartDebugServesInstrumentedRun runs one junction-detection config
// with Calypso hooks attached and checks the debug endpoint reports it.
func TestStartDebugServesInstrumentedRun(t *testing.T) {
	o := obs.New(obs.Config{})
	addr, srv, err := obs.Serve(o.Handler(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rt, err := calypso.New(calypso.Config{Workers: 2, Hooks: o.CalypsoHooks()})
	if err != nil {
		t.Fatal(err)
	}
	im, truth := junction.Synthesize(junction.SynthSpec{W: 64, H: 64, Rectangles: 2, Noise: 0.02, Seed: 1})
	if _, err := junction.RunScored(rt, im, junction.CoarseParams(), truth, 4); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["calypso_steps"] == 0 {
		t.Fatalf("no calypso steps recorded: %v", snap.Counters)
	}
	if snap.Counters["calypso_execs"] == 0 {
		t.Fatalf("no calypso executions recorded: %v", snap.Counters)
	}

	resp2, err := http.Get("http://" + addr.String() + "/trace?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var evs []obs.Event
	if err := json.NewDecoder(resp2.Body).Decode(&evs); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(evs) == 0 || len(evs) > 5 {
		t.Fatalf("/trace?n=5 returned %d events", len(evs))
	}
}

func TestStartDebugBadAddr(t *testing.T) {
	if _, _, err := obs.Serve(obs.New(obs.Config{}).Handler(), "127.0.0.1:999999"); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestServeAdmissionRecoversGrants: the -wal-dir admission service must
// recover a committed grant across a restart, over the wire protocol.
func TestServeAdmissionRecoversGrants(t *testing.T) {
	dir := t.TempDir() + "/wal"
	o := obs.New(obs.Config{})
	cfg := admitConfig{dir: dir, addr: "127.0.0.1:0", sync: "always",
		snapshotEvery: 64, procs: 8}
	srv, plane, _, err := serveAdmission(o, "", cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := qosnet.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	job := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(1, 0, workload.Tunable)
	if err := c.Observe(0); err != nil {
		t.Fatal(err)
	}
	g, err := c.Negotiate(job)
	if err != nil {
		t.Fatalf("negotiate over the wire: %v", err)
	}
	c.Close()
	srv.Close()
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, plane2, _, err := serveAdmission(nil, "", cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	defer plane2.Close()
	grants := plane2.Grants()
	if len(grants) != 1 || grants[0].JobID != g.JobID {
		t.Fatalf("restart recovered grants %+v, want job %d", grants, g.JobID)
	}

	// The durability instruments landed in the observer's /metrics registry.
	snap := o.Reg.Snapshot()
	if snap.Counters["durable_appends"] == 0 {
		t.Fatalf("durable instruments missing from the registry: %v", snap.Counters)
	}
}

func TestServeAdmissionBadPolicy(t *testing.T) {
	if _, _, _, err := serveAdmission(nil, "", admitConfig{dir: t.TempDir(), addr: "127.0.0.1:0",
		sync: "sometimes", snapshotEvery: 64, procs: 4}); err == nil {
		t.Fatal("bad sync policy accepted")
	}
}

// TestCloseAdmissionReportsTheFinalFlush: under -wal-sync every-n the last
// records are made durable by the plane's close, and when that flush fails
// the shutdown says so instead of exiting as if it had not.
func TestCloseAdmissionReportsTheFinalFlush(t *testing.T) {
	for _, fail := range []bool{false, true} {
		fs := vfs.NewFault(vfs.NewMem())
		srv, plane, _, err := serveAdmission(nil, "", admitConfig{fs: fs, dir: "wal", addr: "127.0.0.1:0",
			sync: "every-n", snapshotEvery: 64, procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		c, err := qosnet.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		job := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}.Job(1, 0, workload.Tunable)
		if _, err := c.Negotiate(job); err != nil {
			t.Fatalf("negotiate over the wire: %v", err)
		}
		c.Close()
		errDisk := errors.New("disk gone")
		if fail {
			fs.SetSyncError(errDisk, 0)
		}
		err = closeAdmission(srv, plane)
		if fail != errors.Is(err, errDisk) || (!fail && err != nil) {
			t.Fatalf("sync fails: %v; closing the admission service returned %v", fail, err)
		}
	}
}
