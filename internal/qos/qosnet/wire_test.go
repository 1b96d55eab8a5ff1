package qosnet

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/qos"
)

// rawConn dials the server without the client, so a test can put any bytes
// on the wire.
func rawConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a hang fails the test instead of the suite
	return conn
}

// expectRefusal reads what the server sends after a frame it cannot accept:
// one op-less error response naming the cause, then the end of the stream.
func expectRefusal(t *testing.T, name string, conn net.Conn, want string) {
	t.Helper()
	fr := frame.NewReader(conn, "qosnet", maxFrame)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("%s: no error frame: %v", name, err)
	}
	var resp response
	if err := decodeResponse(payload, &resp, new(qos.GrantBoxes)); err != nil {
		t.Fatalf("%s: error frame does not decode: %v", name, err)
	}
	if resp.op != 0 || resp.status != statusError || !strings.Contains(resp.err, want) {
		t.Fatalf("%s: got %+v, want an op-less error naming %q", name, resp, want)
	}
	// The handler closes the connection as its last act, so a clean end
	// here means its goroutine is gone.
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("%s: after the error frame: %v, want io.EOF", name, err)
	}
}

// Every malformed frame gets one error frame naming its cause and a closed
// connection; no other connection notices.
func TestServerRefusesMalformedFrames(t *testing.T) {
	srv, healthy := startServer(t, 4)

	ping, err := appendRequest(nil, &request{op: opPing})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), ping...)
	corrupt[frame.HeaderLen+1] ^= 0x01
	oversized := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	oversized = append(oversized, 0, 0, 0, 0)

	// Torn frames reach a server that has no read deadline when the client
	// ends its sending side.
	halfClose := map[string]bool{"torn header": true, "torn payload": true}
	cases := map[string]malformed{
		"oversized":     {oversized, "frame length 4294967295 exceeds limit 1048576"},
		"just over":     {append(binary.LittleEndian.AppendUint32(nil, maxFrame+1), 0, 0, 0, 0), "frame length 1048577 exceeds limit 1048576"},
		"bad checksum":  {corrupt, "frame checksum mismatch"},
		"torn header":   {ping[:5], "torn frame header"},
		"torn payload":  {ping[:len(ping)-1], "torn frame payload"},
		"after a good":  {append(append([]byte(nil), ping...), corrupt...), "frame checksum mismatch"},
		"empty payload": {framed(nil), "truncated payload"},
	}
	for name, tc := range hostile() {
		if tc.bytes != nil { // nil is "empty payload" above
			cases["payload: "+name] = malformed{framed(tc.bytes), tc.want}
		}
	}

	for name, tc := range cases {
		conn := rawConn(t, srv)
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if halfClose[name] {
			conn.(*net.TCPConn).CloseWrite()
		}
		if name == "after a good" {
			// The good frame is answered first.
			fr := frame.NewReader(io.LimitReader(conn, int64(frame.HeaderLen+3)), "qosnet", maxFrame)
			var resp response
			if p, err := fr.Next(); err != nil || decodeResponse(p, &resp, new(qos.GrantBoxes)) != nil || resp.op != opPing || resp.status != statusOK {
				t.Fatalf("%s: first answer %+v, %v", name, resp, err)
			}
		}
		expectRefusal(t, name, conn, tc.want)
		if err := healthy.Ping(); err != nil {
			t.Fatalf("%s: the healthy connection broke: %v", name, err)
		}
	}

	srv.mu.Lock()
	left := len(srv.conns)
	srv.mu.Unlock()
	if left != 1 {
		t.Fatalf("%d connections still registered, want only the healthy one", left)
	}
	if g, err := healthy.Negotiate(job(1, 4, 10, 20)); err != nil || g.JobID != 1 {
		t.Fatalf("negotiation after the refusals: %+v, %v", g, err)
	}
}

// gobHello is the first message of the gob stream a client of the previous
// protocol opens with (its type definition for the request envelope).
const gobHello = "4d7f030101077265717565737401ff8000010601024f7001040001034a6f6201ff820001034e6f7701080001064f726967696e0108000107486f72697a6f6e010800010550726f6373010400000061"

// A peer still speaking gob gets an answer and a closed connection, not a
// hang: gob's length prefix and type id read as a frame length far over the
// limit.
func TestGobPeerIsRefused(t *testing.T) {
	srv, _ := startServer(t, 4)
	stream, err := hex.DecodeString(gobHello)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawConn(t, srv)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	expectRefusal(t, "gob", conn, "exceeds limit 1048576")
}

// fakeServer accepts one connection and hands it to serve.
func fakeServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return ln.Addr().String()
}

// After a transport error the client must not touch the connection again:
// the second call would otherwise read the tail of the first answer.
func TestClientBreaksOnATornFrame(t *testing.T) {
	answer := appendResponse(nil, &response{op: opPing})
	addr := fakeServer(t, func(conn net.Conn) {
		fr := frame.NewReader(conn, "qosnet", maxFrame)
		if _, err := fr.Next(); err != nil {
			return
		}
		conn.Write(answer[:len(answer)-2]) // a torn frame, then the end of the stream
	})
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	first := cli.Ping()
	if first == nil || !strings.Contains(first.Error(), "qosnet: receive: qosnet: torn frame payload") {
		t.Fatalf("first call: %v, want a torn-frame receive error", first)
	}
	for i := 0; i < 2; i++ {
		_, err := cli.Negotiate(job(1, 1, 1, 2))
		if err == nil || !strings.HasPrefix(err.Error(), "qosnet: connection broken: ") || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("later call %d: %v, want the first error wrapped", i, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("closing a broken client: %v", err)
	}
}

// An answer to some other op means the stream is out of step; an op-less
// error means the server gave up on it.  Both break the client.
func TestClientBreaksOnADesynchronisedStream(t *testing.T) {
	for name, tc := range map[string]struct {
		answer response
		want   string
	}{
		"another op's answer": {response{op: opUtilization, value: 0.5}, "sent op 5, received the answer to op 4"},
		"refusal":             {response{status: statusError, err: "qosnet: frame checksum mismatch"}, "server refused the request: qosnet: frame checksum mismatch"},
	} {
		answer := tc.answer
		addr := fakeServer(t, func(conn net.Conn) {
			fr := frame.NewReader(conn, "qosnet", maxFrame)
			for {
				if _, err := fr.Next(); err != nil {
					return
				}
				conn.Write(appendResponse(nil, &answer))
			}
		})
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Ping(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, want %q", name, err, tc.want)
		}
		if err := cli.Ping(); err == nil || !strings.HasPrefix(err.Error(), "qosnet: connection broken: ") {
			t.Fatalf("%s: second call: %v", name, err)
		}
		cli.Close()
	}
}

// An error the arbitrator reports, or a request the client will not send,
// is that call's error only.
func TestApplicationErrorsDoNotBreakTheClient(t *testing.T) {
	_, cli := startServer(t, 4)
	if _, err := cli.Negotiate(core.Job{ID: 9}); err == nil || !strings.Contains(err.Error(), "no chains") {
		t.Fatalf("invalid job: %v, want the arbitrator's validation error", err)
	}
	long := job(2, 1, 1, 2)
	long.Name = strings.Repeat("x", frame.MaxString+1)
	if _, err := cli.Negotiate(long); err == nil || !strings.Contains(err.Error(), "exceeds limit 4096") {
		t.Fatalf("over-long name: %v", err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("client broken by application errors: %v", err)
	}
	if g, err := cli.Negotiate(job(3, 4, 10, 20)); err != nil || g.JobID != 3 {
		t.Fatalf("negotiation after application errors: %+v, %v", g, err)
	}
}

// framed returns payload's frame as one byte slice.
func framed(payload []byte) []byte {
	b := make([]byte, frame.HeaderLen, frame.HeaderLen+len(payload))
	frame.PutHeader(b, payload)
	return append(b, payload...)
}
