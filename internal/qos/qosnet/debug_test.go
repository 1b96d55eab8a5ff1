package qosnet

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"milan/internal/fed"
	"milan/internal/obs"
)

// startDebugServer runs a qosnet server whose arbitrator is instrumented by
// an observer, with the HTTP debug endpoint enabled.
func startDebugServer(t *testing.T) (*obs.Observer, *Server, *Client, string) {
	t.Helper()
	o := obs.New(obs.Config{})
	arb, err := fed.New(fed.Config{Procs: 4, Observer: o.DecisionObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(arb, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.EnableDebug(o, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return o, srv, cli, "http://" + addr.String()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestEnableDebugServesMetricsAndTrace(t *testing.T) {
	_, srv, cli, base := startDebugServer(t)
	if srv.debugLn == nil {
		t.Fatal("no debug listener after EnableDebug")
	}
	if _, err := cli.Negotiate(job(1, 2, 10, 100)); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters[obs.MetricAdmitted] != 1 || snap.Counters["qos_decisions"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}

	code, body = httpGet(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var evs []obs.Event
	if err := json.Unmarshal(body, &evs); err != nil || len(evs) != 1 || evs[0].Type != "Committed" || evs[0].Job != 1 {
		t.Fatalf("/trace = %+v, err %v; want job 1's Committed event", evs, err)
	}
}

func TestEnableDebugTwiceFails(t *testing.T) {
	o, srv, _, _ := startDebugServer(t)
	if _, err := srv.EnableDebug(o, "127.0.0.1:0"); err == nil {
		t.Fatal("second EnableDebug succeeded")
	}
}

func TestEnableDebugNeedsObserver(t *testing.T) {
	srv, _ := startServer(t, 4)
	if _, err := srv.EnableDebug(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("EnableDebug(nil) succeeded")
	}
	if srv.debugLn != nil {
		t.Fatal("debug listener set without a debug server")
	}
}

func TestCloseStopsDebugServer(t *testing.T) {
	_, srv, _, base := startDebugServer(t)
	srv.Close()
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("debug endpoint still serving after Close")
	}
	if _, err := srv.EnableDebug(obs.New(obs.Config{}), "127.0.0.1:0"); err == nil {
		t.Fatal("EnableDebug on a closed server succeeded")
	}
}
