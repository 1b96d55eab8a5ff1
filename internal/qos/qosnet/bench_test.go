package qosnet

import (
	"errors"
	"io"
	"net"
	"testing"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/qos"
	"milan/internal/workload"
)

// fig4 is the served benchmark's steady_wire job: 8 processors for 20, then
// 4 for 40 or the other way round, half the window slack.
var fig4 = workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.5}

// fig4Stream hands out that job released every `gap` time units, reusing
// one value so the generator allocates nothing the benchmarks would count.
type fig4Stream struct {
	job    core.Job
	gap    float64
	d1, d2 float64 // the two task deadlines after the release
}

func newFig4Stream(gap float64) *fig4Stream {
	job := fig4.Job(0, 0, workload.Tunable)
	first := job.Chains[0].Tasks
	return &fig4Stream{job: job, gap: gap, d1: first[0].Deadline, d2: first[1].Deadline}
}

func (s *fig4Stream) next() core.Job {
	s.job.ID++
	s.job.Release += s.gap
	d1, d2 := s.job.Release+s.d1, s.job.Release+s.d2
	for c := range s.job.Chains {
		s.job.Chains[c].Tasks[0].Deadline, s.job.Chains[c].Tasks[1].Deadline = d1, d2
	}
	return s.job
}

var sinkGrant *qos.Grant

// BenchmarkRoundTrip is the protocol's own cost on loopback, over an
// in-process arbitrator: a ping is framing, two socket writes and two
// wake-ups; negotiate_fig4 adds the codec for a tunable two-chain job and
// its grant, the arbitrator's decision (~1.5 us) and a clock report every
// eighth job, at 83% of 64 processors.  floor is the loopback under them
// all: a ping's request and response bytes over a bare TCP pair, so
// qosnet's own cost on the wire is ping minus floor.
func BenchmarkRoundTrip(b *testing.B) {
	b.Run("floor", func(b *testing.B) {
		req, err := appendRequest(nil, &request{op: opPing})
		if err != nil {
			b.Fatal(err)
		}
		resp := appendResponse(nil, &response{op: opPing})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ln.Close() })
		done := make(chan struct{})
		go func() { // the echo end: no frame reader, no codec, no server
			defer close(done)
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			in := make([]byte, len(req))
			for {
				if _, err := io.ReadFull(c, in); err != nil {
					return
				}
				if _, err := c.Write(resp); err != nil {
					return
				}
			}
		}()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close(); <-done })
		in := make([]byte, len(resp))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Write(req); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(c, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	serve := func(b *testing.B) *Client {
		arb, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 64})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := ListenAndServe(arb, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		cli, err := Dial(srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cli.Close() })
		return cli
	}
	b.Run("ping", func(b *testing.B) {
		cli := serve(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cli.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("negotiate_fig4", func(b *testing.B) {
		cli := serve(b)
		jobs := newFig4Stream(6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := jobs.next()
			if i%8 == 0 {
				if err := cli.Observe(job.Release - 8*jobs.gap); err != nil {
					b.Fatal(err)
				}
			}
			g, err := cli.Negotiate(job)
			if err != nil && !errors.Is(err, qos.ErrRejected) {
				b.Fatal(err)
			}
			sinkGrant = g
		}
	})
}

// BenchmarkCodec is one message through the codec with no socket: framed
// into a reused buffer, then decoded the way the receiving end does.
func BenchmarkCodec(b *testing.B) {
	b.Run("request", func(b *testing.B) {
		req := request{op: opNegotiate, job: newFig4Stream(6).next()}
		var buf []byte
		var mem carver // one connection's
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendRequest(buf[:0], &req); err != nil {
				b.Fatal(err)
			}
			var got request
			if err := decodeRequest(buf[frame.HeaderLen:], &got, &mem); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response", func(b *testing.B) {
		resp := response{op: opNegotiate, grant: &qos.Grant{JobID: 23456, Chain: 1, Quality: 1,
			Placement: core.Placement{JobID: 23456, Chain: 1, Tasks: []core.TaskPlacement{
				{Task: 0, Start: 140737.125, Finish: 140777.125, Procs: 4},
				{Task: 1, Start: 140777.125, Finish: 140797.125, Procs: 8}}}}}
		var buf []byte
		var boxes qos.GrantBoxes // one client's: the grants share its slabs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], &resp)
			var got response
			if err := decodeResponse(buf[frame.HeaderLen:], &got, &boxes); err != nil {
				b.Fatal(err)
			}
			sinkGrant = got.grant
		}
	})
}
