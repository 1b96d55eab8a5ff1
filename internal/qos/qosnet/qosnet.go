// Package qosnet puts the QoS negotiation protocol on the wire: a TCP
// server wrapping an arbitrator — in junctiond the durable plane over the
// one-shard fed plane — and a client that implements qos.Negotiator, so QoS
// agents in other processes (or on other machines of the cluster) can
// negotiate resource reservations.
//
// A connection is persistent and carries strictly one request at a time:
// the client writes one request frame and reads one response frame before
// it writes the next, so there is never more than one message in flight per
// connection and neither side queues.  Concurrency comes from connections,
// one server goroutine each.
//
// Every message is one internal/frame frame — [len u32][crc32c u32]
// [payload], at most 1 MiB of payload — written with a single Write.  A
// request payload is [version u8 = 1][op u8] and then only the fields that
// op carries; a response is [version][op echo][status u8: 0 ok, 1 rejected,
// 2 error] and then the op's result, or the error's text.  Integers and
// list lengths are shortest-form varints (zig-zag when signed), strings a
// varint length (at most 4096) and their bytes, booleans one byte 0 or 1,
// floats a length byte and their IEEE-754 bits with trailing zero bytes
// dropped — bit-exact, NaN payloads included.  Lists hold at most 65 536
// elements.  Each value has exactly one encoding and the decoders accept no
// other, so decode∘encode and encode∘decode are both the identity
// (FuzzQosnetDecode pins this); DESIGN.md has the per-op field tables.
//
// The server answers a frame it cannot accept — over the size limit, torn,
// failing its checksum, of another version, of an unknown op, not in
// canonical form or with bytes left over — with one error response (op echo
// 0) that carries the decoder's reason, and closes the connection.  An
// error the arbitrator returns (an invalid job, say) travels the same way
// but echoes the op and leaves the connection open.  The client treats
// anything other than a well-formed answer to the op it sent as a broken
// connection: it closes it and fails every later call with that first
// error, so a caller never reads the tail of somebody else's answer.
package qosnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
)

// Arbitrator is the admission surface a server can export: everything the
// static negotiation protocol needs.  The fed plane at any shard count, the
// durable plane over it and the reference qos.Arbitrator all satisfy it.
type Arbitrator interface {
	Negotiate(job core.Job) (*qos.Grant, error)
	NegotiateDAG(job core.DAGJob) (*qos.Grant, error)
	Observe(now float64)
	Stats() core.Stats
	Utilization(origin, horizon float64) float64
}

// served is what every value a server exports implements.  The ops beyond
// these three are answered when the value also has the method the op
// calls (see dispatch) and refused as not supported when it does not.
type served interface {
	Negotiate(job core.Job) (*qos.Grant, error)
	Observe(now float64)
	Utilization(origin, horizon float64) float64
}

// Server exposes an arbitrator over a listener.  Each accepted connection
// is served by its own goroutine; the arbitrator itself serializes
// decisions.
type Server struct {
	arb served
	ln  net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	debug   *http.Server // optional observability endpoint (EnableDebug)
	debugLn net.Listener

	// instruments is what Instrument installed, nil when nothing is.
	instruments atomic.Pointer[Instruments]
}

// Instruments is what a server traces, times and audits every negotiation
// with.  The server owns a request's lifecycle, so it is the one place they
// meet: it opens the request's arrival span, hands the arbitrator nothing
// but the request's phase record, and reads the latency it reports and the
// spans it records off that record once it has ended.  The three are
// installed together and read with one atomic load per request, so no
// request runs with the tracer of one installation and the callback of
// another.
type Instruments struct {
	// Tracer makes the server a trace ingress: a negotiation request
	// arriving without a trace identity gets one minted here (unless head
	// sampling drops it), and every traced request gets a qosnet.negotiate
	// arrival span — under the caller's span, if the request carries one —
	// whose children are the request's admission phases
	// (obs.ActiveSpan.EndAdmission).
	Tracer *obs.Tracer
	// Latency receives every negotiation's finished phase record
	// (route/probe/plan/reserve/journal/ack): arbitrators that implement
	// qos.TimedNegotiator attribute their phases into it, for the others
	// the whole call is ack.
	Latency *latency.Plane
	// OnDecision observes every negotiation outcome, after the request's
	// record has ended, with the server-side latency that record measured
	// (the SLO engine's admission-latency feed).
	OnDecision func(job core.Job, g *qos.Grant, err error, latency time.Duration)
}

// Serve starts serving the arbitrator on ln and returns immediately.
func Serve(arb Arbitrator, ln net.Listener) *Server { return serve(arb, ln) }

func serve(arb served, ln net.Listener) *Server {
	s := &Server{arb: arb, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves the
// arbitrator on it.
func ListenAndServe(arb Arbitrator, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qosnet: listen %s: %w", addr, err)
	}
	return Serve(arb, ln), nil
}

// ServeDynamic serves a renegotiating arbitrator: in addition to the
// negotiation ops, clients may change the machine size (the path a remote
// resource broker or operator uses) and read renegotiation statistics.
func ServeDynamic(dyn *qos.DynamicArbitrator, ln net.Listener) *Server { return serve(dyn, ln) }

// ListenAndServeDynamic listens on addr and serves the dynamic arbitrator.
func ListenAndServeDynamic(dyn *qos.DynamicArbitrator, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qosnet: listen %s: %w", addr, err)
	}
	return ServeDynamic(dyn, ln), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Instrument installs in for every negotiation from now on, replacing what
// was installed before; the zero Instruments removes it.  Safe to call
// while serving.
func (s *Server) Instrument(in Instruments) {
	if in.Tracer == nil && in.Latency == nil && in.OnDecision == nil {
		s.instruments.Store(nil)
		return
	}
	s.instruments.Store(&in)
}

// negotiate runs one negotiation through the installed instruments.  With
// none installed it is a direct call plus one atomic load.
func (s *Server) negotiate(n qos.Negotiator, job core.Job) (*qos.Grant, error) {
	in := s.instruments.Load()
	if in == nil {
		return n.Negotiate(job)
	}
	trace := obs.TraceID(job.Trace)
	if trace == 0 {
		trace = in.Tracer.NewTrace()
	}
	root := in.Tracer.Start(trace, obs.SpanID(job.Span), "qosnet.negotiate", obs.StageArrival, job.ID)
	if job.Trace == 0 {
		job.Trace, job.Span = uint64(trace), uint64(root.ID())
	}
	var sink phase.Sink
	if in.Latency != nil {
		sink = in.Latency
	}
	rec := phase.Start(sink, job.Trace, int64(job.ID))
	var g *qos.Grant
	var err error
	if tn, ok := n.(qos.TimedNegotiator); ok {
		g, err = tn.NegotiateTimed(job, &rec)
	} else {
		g, err = n.Negotiate(job)
	}
	if g != nil {
		rec.SetShard(g.Shard)
	}
	rec.End()
	root.EndAdmission(&rec, g, err)
	if in.OnDecision != nil {
		in.OnDecision(job, g, err, time.Duration(rec.Total()))
	}
	return g, err
}

// Close stops accepting, closes all connections (and the debug endpoint,
// when enabled) and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	if s.debug != nil {
		s.debug.Close()
		s.debug = nil
		s.debugLn = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fr := frame.NewReader(conn, "qosnet", maxFrame)
	var out []byte // every response of this connection is built here
	var mem carver // every job of this connection is decoded into it
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return // the client hung up between requests
		}
		var req request
		if err == nil {
			err = decodeRequest(payload, &req, &mem)
		}
		var resp response
		if err != nil {
			// Not a request this server can act on: say why, once, and
			// hang up — what follows on the stream cannot be trusted.
			resp = response{status: statusError, err: err.Error()}
		} else {
			resp = s.dispatch(&req)
			resp.op = req.op
		}
		out = appendResponse(out[:0], &resp)
		if _, werr := conn.Write(out); werr != nil || err != nil {
			return
		}
	}
}

// verdict is a negotiation's outcome as a response.
func verdict(g *qos.Grant, err error) response {
	switch {
	case errors.Is(err, qos.ErrRejected):
		return response{status: statusRejected}
	case err != nil:
		return failure(err)
	case g == nil:
		return failure(errors.New("qosnet: arbitrator returned neither a grant nor an error"))
	}
	return response{grant: g}
}

func failure(err error) response { return response{status: statusError, err: err.Error()} }

// dispatch answers one request from the served value: the ops every served
// value has directly, the rest through the method the op calls — a static
// arbitrator has NegotiateDAG and scheduler Stats, a renegotiating one
// SetCapacity, Waiting and renegotiation Stats.
func (s *Server) dispatch(req *request) response {
	switch req.op {
	case opNegotiate:
		return verdict(s.negotiate(s.arb, req.job))
	case opObserve:
		s.arb.Observe(req.now)
		return response{}
	case opUtilization:
		return response{value: s.arb.Utilization(req.origin, req.horizon)}
	case opPing:
		return response{}
	case opNegotiateDAG:
		if a, ok := s.arb.(qos.DAGNegotiator); ok {
			return verdict(a.NegotiateDAG(req.dag))
		}
	case opStats:
		if a, ok := s.arb.(interface{ Stats() core.Stats }); ok {
			return response{stats: a.Stats()}
		}
	case opSetCapacity:
		if a, ok := s.arb.(interface{ SetCapacity(int) ([]int, error) }); ok {
			aborted, err := a.SetCapacity(req.procs)
			if err != nil {
				return failure(err)
			}
			return response{aborted: aborted}
		}
	case opDynStats:
		if a, ok := s.arb.(interface{ Stats() qos.DynamicStats }); ok {
			return response{dyn: a.Stats()}
		}
	case opWaiting:
		if a, ok := s.arb.(interface{ Waiting() int }); ok {
			return response{count: a.Waiting()}
		}
	}
	return failure(fmt.Errorf("qosnet: op %d not supported by the served arbitrator", req.op))
}

// Client speaks the protocol over one persistent TCP connection.  It is
// safe for concurrent use; requests are serialized on the connection.
//
// A transport, framing or decoding error breaks the client for good: the
// connection is closed and every later call fails with that first error.
// An error the server reports for one request (an invalid job, say) does
// not.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	fr     *frame.Reader
	out    []byte // every request of this client is built here
	broken error  // the error that broke the connection
}

var _ qos.Negotiator = (*Client)(nil)

// Dial connects to a qosnet server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qosnet: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, fr: frame.NewReader(conn, "qosnet", maxFrame)}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// breakWith records err as what broke the connection, closes it and returns
// err.  Called with c.mu held.
func (c *Client) breakWith(err error) error {
	c.broken = err
	c.conn.Close()
	return err
}

func (c *Client) roundTrip(req *request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return response{}, fmt.Errorf("qosnet: connection broken: %w", c.broken)
	}
	out, err := appendRequest(c.out[:0], req)
	if err != nil {
		// Over a wire limit: nothing was sent, and whatever the attempt
		// grew the buffer to is not kept.
		return response{}, err
	}
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		return response{}, c.breakWith(fmt.Errorf("qosnet: send: %w", err))
	}
	payload, err := c.fr.Next()
	if err != nil {
		return response{}, c.breakWith(fmt.Errorf("qosnet: receive: %w", err))
	}
	var resp response
	if err := decodeResponse(payload, &resp); err != nil {
		return response{}, c.breakWith(fmt.Errorf("qosnet: receive: %w", err))
	}
	switch {
	case resp.op == req.op && resp.status == statusError:
		return response{}, errors.New(resp.err)
	case resp.op == req.op:
		return resp, nil
	case resp.status == statusError:
		return response{}, c.breakWith(fmt.Errorf("qosnet: server refused the request: %s", resp.err))
	}
	return response{}, c.breakWith(fmt.Errorf("qosnet: sent op %d, received the answer to op %d", req.op, resp.op))
}

// grantOf is the result of a negotiation round trip.
func grantOf(resp response, err error) (*qos.Grant, error) {
	if err != nil {
		return nil, err
	}
	if resp.status == statusRejected {
		return nil, qos.ErrRejected
	}
	return resp.grant, nil
}

// Negotiate submits a job's task system to the remote arbitrator.
func (c *Client) Negotiate(job core.Job) (*qos.Grant, error) {
	return grantOf(c.roundTrip(&request{op: opNegotiate, job: job}))
}

// NegotiateDAG submits a DAG job to the remote arbitrator.
func (c *Client) NegotiateDAG(job core.DAGJob) (*qos.Grant, error) {
	return grantOf(c.roundTrip(&request{op: opNegotiateDAG, dag: job}))
}

// Observe reports clock progress to the remote arbitrator.
func (c *Client) Observe(now float64) error {
	_, err := c.roundTrip(&request{op: opObserve, now: now})
	return err
}

// Stats fetches the remote arbitrator's counters.
func (c *Client) Stats() (core.Stats, error) {
	resp, err := c.roundTrip(&request{op: opStats})
	return resp.stats, err
}

// Utilization fetches reserved-capacity fraction over [origin, horizon].
func (c *Client) Utilization(origin, horizon float64) (float64, error) {
	resp, err := c.roundTrip(&request{op: opUtilization, origin: origin, horizon: horizon})
	return resp.value, err
}

// Ping verifies connectivity.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&request{op: opPing})
	return err
}

// SetCapacity renegotiates a dynamic server's machine size, returning the
// IDs of aborted jobs.
func (c *Client) SetCapacity(procs int) ([]int, error) {
	resp, err := c.roundTrip(&request{op: opSetCapacity, procs: procs})
	return resp.aborted, err
}

// DynStats fetches a dynamic server's renegotiation counters.
func (c *Client) DynStats() (qos.DynamicStats, error) {
	resp, err := c.roundTrip(&request{op: opDynStats})
	return resp.dyn, err
}

// Waiting fetches a dynamic server's queued-rejection count.
func (c *Client) Waiting() (int, error) {
	resp, err := c.roundTrip(&request{op: opWaiting})
	return resp.count, err
}
