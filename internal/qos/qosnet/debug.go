package qosnet

import (
	"fmt"
	"net"
	"net/http"

	"milan/internal/obs"
)

// EnableDebug starts an HTTP debug server on addr (e.g. "127.0.0.1:0")
// exposing the observer's /metrics, /trace and /spans endpoints alongside
// the negotiation protocol.  The debug server is shut down by Close.
// It returns the bound address.
//
// The observer is expected to already be wired into the decision feed of
// the arbitrator this server fronts (obs.Observer.DecisionObserver as the
// config's Observer, or InstrumentDynamic); EnableDebug only publishes it.
// To have the observer's tracer record the requests this server answers,
// install it with Instrument.
func (s *Server) EnableDebug(o *obs.Observer, addr string) (net.Addr, error) {
	if o == nil {
		return nil, fmt.Errorf("qosnet: debug server needs an observer")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("qosnet: server closed")
	}
	if s.debugLn != nil {
		return nil, fmt.Errorf("qosnet: debug server already enabled on %s", s.debugLn.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qosnet: debug listen %s: %w", addr, err)
	}
	s.debugLn = ln
	srv := &http.Server{Handler: o.Handler()}
	s.debug = srv
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) // returns on Close; Close clears s.debug, so not read here
	}()
	return ln.Addr(), nil
}

// DebugAddr returns the debug server's address, or nil when disabled.
func (s *Server) DebugAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.debugLn == nil {
		return nil
	}
	return s.debugLn.Addr()
}
