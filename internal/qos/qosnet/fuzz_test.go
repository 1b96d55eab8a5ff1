package qosnet

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"milan/internal/frame"
	"milan/internal/qos"
)

// FuzzQosnetDecode hardens both ends' decoders: no input may panic them or
// make them allocate more than a small multiple of its length, and any
// payload one of them accepts must re-encode to the same bytes — so a
// hostile frame cannot carry state the encoders would not have produced.
// Each input is tried as a bare payload and as a framed stream; the
// committed corpus (testdata/fuzz/FuzzQosnetDecode) holds the cases of
// hostile() and a stream whose header claims 2^32-1 bytes.
func FuzzQosnetDecode(f *testing.F) {
	g := gen{rand.New(rand.NewSource(7))}
	for _, o := range allOps {
		req := g.request(o)
		if framed, err := appendRequest(nil, &req); err == nil {
			f.Add(framed)
			f.Add(framed[frame.HeaderLen:])
		}
		for _, st := range statuses(o) {
			resp := g.response(o, st)
			f.Add(appendResponse(nil, &resp)[frame.HeaderLen:])
		}
	}
	// Op 4, the utilization query, left the protocol: what a peer built
	// before then sends for it — the request, framed and bare, and its
	// answer — is refused as an unknown op, never decoded.
	req := beginFrame(nil)
	req.u8(wireVersion)
	req.u8(uint8(opRetired))
	req.f64(0)
	req.f64(10)
	if framed, err := req.endFrame(); err == nil {
		f.Add(framed)
		f.Add(framed[frame.HeaderLen:])
	}
	resp := beginFrame(nil)
	resp.u8(wireVersion)
	resp.u8(uint8(opRetired))
	resp.u8(uint8(statusOK))
	resp.f64(0.5)
	if framed, err := resp.endFrame(); err == nil {
		f.Add(framed[frame.HeaderLen:])
	}
	for _, tc := range hostile() {
		f.Add(tc.bytes)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBoth(t, data)
		fr := frame.NewReader(bytes.NewReader(data), "qosnet", maxFrame)
		for {
			payload, err := fr.Next()
			if err != nil {
				return
			}
			decodeBoth(t, payload)
		}
	})
}

// decodeBoth runs the request and the response decoder over payload.
func decodeBoth(t *testing.T, payload []byte) {
	// What a decoder may allocate for n bytes of payload: the widest
	// element is a 96-byte DAG task for 7 bytes on the wire, lists nest
	// three deep, an error costs its message, and a connection's first
	// job starts one job chunk and one chunk of kept names.
	budget := uint64(64*len(payload)+4096) + uint64(unsafe.Sizeof(jobChunk{})+keptChunk)
	// TotalAlloc is process-wide, and a goroutine an earlier test left
	// winding down (a closing connection, an HTTP keep-alive) can allocate
	// inside one reading; a decoder over budget is over it every time.
	allocated := func(decode func() error) (got uint64, err error) {
		var before, after runtime.MemStats
		for attempt := 0; attempt < 3; attempt++ {
			runtime.ReadMemStats(&before)
			err = decode()
			runtime.ReadMemStats(&after)
			if got = after.TotalAlloc - before.TotalAlloc; got <= budget {
				break
			}
		}
		return got, err
	}

	var req request
	got, err := allocated(func() error { req = request{}; return decodeRequest(payload, &req, new(carver)) })
	if got > budget {
		t.Fatalf("decodeRequest allocated %d bytes for a %d-byte payload (budget %d)", got, len(payload), budget)
	}
	if err == nil {
		re, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		if !bytes.Equal(re[frame.HeaderLen:], payload) {
			t.Fatalf("request decode/encode not canonical:\n in  %x\n out %x", payload, re[frame.HeaderLen:])
		}
	}
	// Twice through one connection's carver: what the first decode handed
	// out is not touched by the second, accepted or not, and both are what
	// a connection that had decoded nothing else makes of the payload.
	// Decoded values are compared by what they encode to, in which a NaN
	// equals itself.
	sameRequest := func(a, b *request) bool {
		x, _ := appendRequest(nil, a)
		y, _ := appendRequest(nil, b)
		return bytes.Equal(x, y)
	}
	var mem carver
	var first, second request
	err1 := decodeRequest(payload, &first, &mem)
	err2 := decodeRequest(payload, &second, &mem)
	if (err1 == nil) != (err == nil) || (err2 == nil) != (err == nil) {
		t.Fatalf("one payload, three verdicts: fresh %v, first %v, second %v", err, err1, err2)
	}
	if err == nil && !(sameRequest(&first, &req) && sameRequest(&second, &req)) {
		t.Fatalf("decoding twice through one carver:\n fresh  %+v\n first  %+v\n second %+v", req, first, second)
	}

	// A client's slab, started before the count: a decoded grant cuts a
	// box from it, which costs nothing.
	var boxes qos.GrantBoxes
	boxes.Next()
	var resp response
	got, err = allocated(func() error { resp = response{}; return decodeResponse(payload, &resp, &boxes) })
	if got > budget {
		t.Fatalf("decodeResponse allocated %d bytes for a %d-byte payload (budget %d)", got, len(payload), budget)
	}
	if err == nil {
		if re := appendResponse(nil, &resp)[frame.HeaderLen:]; !bytes.Equal(re, payload) {
			t.Fatalf("response decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
	}
	// Twice more through the client's slab, the same way: the second grant
	// is another box, and the first is what it was.
	var firstResp, secondResp response
	err1 = decodeResponse(payload, &firstResp, &boxes)
	err2 = decodeResponse(payload, &secondResp, &boxes)
	if (err1 == nil) != (err == nil) || (err2 == nil) != (err == nil) {
		t.Fatalf("one payload, three verdicts: counted %v, first %v, second %v", err, err1, err2)
	}
	if err == nil && !(bytes.Equal(appendResponse(nil, &firstResp), appendResponse(nil, &resp)) &&
		bytes.Equal(appendResponse(nil, &secondResp), appendResponse(nil, &resp))) {
		t.Fatalf("decoding through one slab:\n counted %+v\n first   %+v\n second  %+v", resp, firstResp, secondResp)
	}
	if resp.grant != nil && (resp.grant == firstResp.grant || firstResp.grant == secondResp.grant) {
		t.Fatalf("two responses decoded into one grant: %p %p %p", resp.grant, firstResp.grant, secondResp.grant)
	}
}
