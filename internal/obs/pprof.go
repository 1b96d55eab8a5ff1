package obs

import (
	"net/http"
	"net/http/pprof"
)

// enablePprof mounts the Go runtime profiler on the observer's debug
// endpoint under /debug/pprof/ (index, named profiles, cmdline, CPU
// profile, symbol lookup and execution trace) — the standard
// net/http/pprof surface, reachable wherever the debug mux is served
// (obs.Serve: junctiond -debug-addr, tunesim -debug-addr).
//
// Profiling is strictly opt-in: nothing is mounted until this is called
// (or Config.EnablePprof is set), because the CPU-profile and trace
// endpoints actively perturb the scheduler hot paths they measure, and a
// debug port is often reachable beyond the operator's shell.
func (o *Observer) enablePprof() {
	o.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index), "runtime profiles (pprof index + named profiles)")
	o.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline), "running program's command line")
	o.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile), "CPU profile (?seconds=N)")
	o.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol), "program-counter symbol lookup")
	o.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace), "execution trace (?seconds=N)")
}
