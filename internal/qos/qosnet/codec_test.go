package qosnet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"milan/internal/core"
	"milan/internal/frame"
	"milan/internal/qos"
	"milan/internal/workload"
)

// gen draws the codec's inputs from a seed: the shapes the wire has to
// carry (no chains, empty and limit-length names, negative integers) and
// the float values an encoding most easily gets wrong.
type gen struct{ *rand.Rand }

var hardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 20, 40, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001), // a NaN with a payload
	math.Float64frombits(0x0000000000000100), // one low-order byte of zeros
}

func (g gen) f64() float64 {
	if g.Intn(3) == 0 {
		return hardFloats[g.Intn(len(hardFloats))]
	}
	return g.NormFloat64() * 1e3
}

func (g gen) int() int {
	switch g.Intn(4) {
	case 0:
		return g.Intn(100)
	case 1:
		return -g.Intn(100)
	case 2:
		return []int{math.MinInt64, math.MaxInt64, -1 << 31, 1 << 31}[g.Intn(4)]
	}
	return int(g.Uint64())
}

func (g gen) str() string {
	switch g.Intn(5) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("n", frame.MaxString)
	case 2:
		return "shape-\x00\xff-é"
	}
	return fmt.Sprintf("name-%d", g.Intn(1000))
}

func (g gen) ints(max int) []int {
	n := g.Intn(max + 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = g.int()
	}
	return out
}

func (g gen) task() core.Task {
	t := core.Task{Name: g.str(), Procs: g.int(), Duration: g.f64(), Deadline: g.f64(), Quality: g.f64()}
	if g.Intn(2) == 0 {
		t.Malleable, t.Work, t.MaxProcs = true, g.f64(), g.int()
	}
	return t
}

func (g gen) job() core.Job {
	j := core.Job{ID: g.int(), Name: g.str(), Release: g.f64(), Trace: g.Uint64() >> uint(g.Intn(64)), Span: g.Uint64() >> uint(g.Intn(64)), Tenant: g.str(), Class: g.int()}
	for c := g.Intn(5); c > 0; c-- {
		ch := core.Chain{Name: g.str(), Quality: g.f64()}
		for t := g.Intn(7); t > 0; t-- {
			ch.Tasks = append(ch.Tasks, g.task())
		}
		j.Chains = append(j.Chains, ch)
	}
	return j
}

func (g gen) dagJob() core.DAGJob {
	j := core.DAGJob{ID: g.int(), Name: g.str(), Release: g.f64()}
	for a := g.Intn(4); a > 0; a-- {
		d := core.DAG{Name: g.str(), Quality: g.f64()}
		for t := g.Intn(6); t > 0; t-- {
			d.Tasks = append(d.Tasks, core.DAGTask{Task: g.task(), Preds: g.ints(3)})
		}
		j.Alts = append(j.Alts, d)
	}
	return j
}

func (g gen) grant() *qos.Grant {
	gr := &qos.Grant{JobID: g.int(), Chain: g.int(), Quality: g.f64(), Trace: g.Uint64(), Shard: g.int()}
	gr.Placement.JobID, gr.Placement.Chain = g.int(), g.int()
	for t := g.Intn(7); t > 0; t-- {
		gr.Placement.Tasks = append(gr.Placement.Tasks, core.TaskPlacement{Task: g.int(), Start: g.f64(), Finish: g.f64(), Procs: g.int()})
	}
	return gr
}

func (g gen) request(o op) request {
	r := request{op: o}
	switch o {
	case opNegotiate:
		r.job = g.job()
	case opNegotiateDAG:
		r.dag = g.dagJob()
	case opObserve:
		r.now = g.f64()
	}
	return r
}

func (g gen) response(o op, st status) response {
	r := response{op: o, status: st}
	switch {
	case st == statusError:
		r.err = g.str()
	case st == statusRejected:
	case o.negotiates():
		r.grant = g.grant()
	case o == opStats:
		r.stats = core.Stats{Admitted: g.int(), Rejected: g.int(), TunableChosen: g.ints(4), ReservedArea: g.f64(),
			QualitySum: g.f64(), ChainsTried: g.int(), HolesProbed: g.int(), PlanFailures: g.int()}
	}
	return r
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself and -0 does not equal 0.
func sameBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// payloadOf strips and checks a single frame's header.
func payloadOf(t testing.TB, framed []byte) []byte {
	t.Helper()
	p, err := frame.NewReader(bytes.NewReader(framed), "qosnet", maxFrame).Next()
	if err != nil {
		t.Fatalf("encoder produced a bad frame: %v", err)
	}
	return p
}

var allOps = []op{opNegotiate, opObserve, opStats, opPing, opNegotiateDAG}

// statuses lists the statuses an answer to o may carry.
func statuses(o op) []status {
	if o.negotiates() {
		return []status{statusOK, statusRejected, statusError}
	}
	return []status{statusOK, statusError}
}

// decode(encode(x)) == x and encode(decode(b)) == b, for every op and every
// status, over seeded random values.
func TestCodecRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		g := gen{rand.New(rand.NewSource(seed))}
		for _, o := range allOps {
			req := g.request(o)
			framed, err := appendRequest(nil, &req)
			if err != nil {
				t.Fatalf("seed %d op %d: encode: %v", seed, o, err)
			}
			var got request
			if err := decodeRequest(payloadOf(t, framed), &got, new(carver)); err != nil {
				t.Fatalf("seed %d op %d: decode: %v", seed, o, err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(req)) {
				t.Fatalf("seed %d op %d: request drifted:\n got %+v\nwant %+v", seed, o, got, req)
			}
			if again, err := appendRequest(nil, &got); err != nil || !bytes.Equal(again, framed) {
				t.Fatalf("seed %d op %d: re-encoding the decoded request changed its bytes (%v)", seed, o, err)
			}

			for _, st := range statuses(o) {
				resp := g.response(o, st)
				framed := appendResponse(nil, &resp)
				var got response
				if err := decodeResponse(payloadOf(t, framed), &got, new(qos.GrantBoxes)); err != nil {
					t.Fatalf("seed %d op %d status %d: decode: %v", seed, o, st, err)
				}
				if !sameBits(reflect.ValueOf(got), reflect.ValueOf(resp)) {
					t.Fatalf("seed %d op %d status %d: response drifted:\n got %+v\nwant %+v", seed, o, st, got, resp)
				}
				if again := appendResponse(nil, &got); !bytes.Equal(again, framed) {
					t.Fatalf("seed %d op %d status %d: re-encoding the decoded response changed its bytes", seed, o, st)
				}
			}
		}
	}
	// The one response with no op: the server could not read the request.
	resp := response{status: statusError, err: "qosnet: frame length 4294967295 exceeds limit 1048576"}
	var got response
	if err := decodeResponse(payloadOf(t, appendResponse(nil, &resp)), &got, new(qos.GrantBoxes)); err != nil || !reflect.DeepEqual(got, resp) {
		t.Fatalf("op-less error response: %+v, %v", got, err)
	}
}

// An encoder appends behind what the buffer already holds and, on a value
// over a wire limit, hands the buffer back as it found it.
func TestEncoderLimits(t *testing.T) {
	prefix := []byte("kept")
	long := strings.Repeat("x", frame.MaxString+1)
	for name, req := range map[string]request{
		"long job name":   {op: opNegotiate, job: core.Job{Name: long}},
		"long task name":  {op: opNegotiate, job: core.Job{Chains: []core.Chain{{Tasks: []core.Task{{Name: long}}}}}},
		"too many chains": {op: opNegotiate, job: core.Job{Chains: make([]core.Chain, maxCount+1)}},
		"too many preds":  {op: opNegotiateDAG, dag: core.DAGJob{Alts: []core.DAG{{Tasks: []core.DAGTask{{Preds: make([]int, maxCount+1)}}}}}},
		"frame too large": {op: opNegotiate, job: core.Job{Chains: []core.Chain{{Tasks: make([]core.Task, maxCount)}, {Tasks: make([]core.Task, maxCount)}, {Tasks: make([]core.Task, maxCount)}}}},
	} {
		out, err := appendRequest(prefix, &req)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("%s: err = %v, want a limit error", name, err)
		}
		if string(out) != "kept" {
			t.Fatalf("%s: buffer came back as %d bytes, want the 4 it held", name, len(out))
		}
	}
	ok, err := appendRequest(prefix, &request{op: opPing})
	if err != nil || !bytes.HasPrefix(ok, prefix) || len(ok) != len(prefix)+frame.HeaderLen+2 {
		t.Fatalf("ping behind a prefix: %x, %v", ok, err)
	}

	// A result over a limit goes out as an error response for the same op.
	resp := response{op: opStats, stats: core.Stats{TunableChosen: make([]int, maxCount+1)}}
	var got response
	if err := decodeResponse(payloadOf(t, appendResponse(nil, &resp)), &got, new(qos.GrantBoxes)); err != nil {
		t.Fatal(err)
	}
	if got.op != opStats || got.status != statusError || !strings.Contains(got.err, "tunable-chosen count 65537 exceeds limit 65536") {
		t.Fatalf("oversized result: %+v", got)
	}
	// An error's text is cut to the string limit, not refused.
	resp = response{op: opPing, status: statusError, err: long}
	if err := decodeResponse(payloadOf(t, appendResponse(nil, &resp)), &got, new(qos.GrantBoxes)); err != nil || got.err != long[:frame.MaxString] {
		t.Fatalf("long error text: %d bytes, %v", len(got.err), err)
	}
}

// malformed is bytes a decoder (or the server) must refuse and what its
// reason must say.
type malformed struct {
	bytes []byte
	want  string
}

// hostile is every way a payload can be wrong that the decoders promise to
// name; the same payloads seed FuzzQosnetDecode's committed corpus.
func hostile() map[string]malformed {
	// A negotiate payload up to its chain count: id 1, empty name, release
	// 0, untraced, no tenant, class 0.
	head := []byte{wireVersion, byte(opNegotiate), 2, 0, 0, 0, 0, 0, 0}
	with := func(tail ...byte) []byte { return append(append([]byte(nil), head...), tail...) }
	return map[string]malformed{
		"empty":                  {nil, "truncated payload"},
		"version 2":              {[]byte{2, byte(opPing)}, "version 2, this end speaks version 1"},
		"unknown op":             {[]byte{wireVersion, 99}, "unknown op 99"},
		"op 0":                   {[]byte{wireVersion, 0}, "unknown op 0"},
		"op 4":                   {[]byte{wireVersion, 4}, "unknown op 4"}, // once the utilization query
		"op 7":                   {[]byte{wireVersion, 7}, "unknown op 7"}, // once set-capacity; ops 7-9 left the protocol
		"trailing byte":          {[]byte{wireVersion, byte(opPing), 0}, "1 trailing bytes"},
		"count 65537":            {with(0x81, 0x80, 0x04), "chain count 65537 exceeds limit 65536"},
		"count over the payload": {with(200, 1, 0, 0, 0), "chain count 200 exceeds remaining payload"},
		"over-long varint":       {[]byte{wireVersion, byte(opNegotiate), 0x80, 0x00}, "over-long varint"},
		"varint overflow":        {append([]byte{wireVersion, byte(opNegotiate)}, bytes.Repeat([]byte{0xff}, 11)...), "overflows 64 bits"},
		"bool byte 2":            {with(1, 0, 0, 1, 0, 2, 0, 0, 0, 2), "non-canonical bool byte 0x2"},
		"float of 9 bytes":       {[]byte{wireVersion, byte(opObserve), 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "float of 9 bytes"},
		"float with a zero tail": {[]byte{wireVersion, byte(opObserve), 2, 0x40, 0}, "non-canonical float"},
		"truncated float":        {[]byte{wireVersion, byte(opObserve), 8, 0x40}, "truncated payload"},
		"string over the limit":  {[]byte{wireVersion, byte(opNegotiate), 2, 0x81, 0x20}, "string length 4097 exceeds limit 4096"},
	}
}

func TestDecodeRequestNamesTheCause(t *testing.T) {
	for name, tc := range hostile() {
		var r request
		err := decodeRequest(tc.bytes, &r, new(carver))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "qosnet: ") {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
}

func TestDecodeResponseRejectsWhatNoServerSends(t *testing.T) {
	for name, tc := range map[string]malformed{
		"version 2":               {[]byte{2, byte(opPing), 0}, "version 2"},
		"unknown op":              {[]byte{wireVersion, 7, 0}, "unknown op 7"},
		"op 4":                    {[]byte{wireVersion, 4, 0}, "unknown op 4"},
		"unknown status":          {[]byte{wireVersion, byte(opPing), 3}, "unknown status 3"},
		"ok for no op":            {[]byte{wireVersion, 0, 0}, "answers no op"},
		"rejected ping":           {[]byte{wireVersion, byte(opPing), 1}, "answered with a rejection"},
		"ok negotiate, no grant":  {[]byte{wireVersion, byte(opNegotiate), 0}, "truncated"},
		"rejection with a body":   {[]byte{wireVersion, byte(opNegotiate), 1, 0}, "trailing"},
		"placed tasks over limit": {[]byte{wireVersion, byte(opNegotiate), 0, 0, 0, 0, 0, 0, 0, 0, 0x81, 0x80, 0x04}, "placed task count 65537 exceeds limit"},
	} {
		var r response
		if err := decodeResponse(tc.bytes, &r, new(qos.GrantBoxes)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
}

// The Figure-4 negotiation the benchmark drives must not cost more bytes
// than the gob stream it replaced (251 per admission at the parent, request
// and response together; this codec: about 210).
func TestFigure4NegotiationFitsTheOldWire(t *testing.T) {
	job := workload.FigureJob{X: 8, T: 20, Alpha: 0.5, Laxity: 0.5}.Job(23456, 140737.125, workload.Tunable)
	req, err := appendRequest(nil, &request{op: opNegotiate, job: job})
	if err != nil {
		t.Fatal(err)
	}
	grant := &qos.Grant{JobID: job.ID, Chain: 1, Quality: 1, Placement: core.Placement{JobID: job.ID, Chain: 1, Tasks: []core.TaskPlacement{
		{Task: 0, Start: 140737.125, Finish: 140777.125, Procs: 4}, {Task: 1, Start: 140777.125, Finish: 140797.125, Procs: 8}}}}
	resp := appendResponse(nil, &response{op: opNegotiate, grant: grant})
	if total := len(req) + len(resp); total > 230 {
		t.Fatalf("request %d + response %d = %d bytes, want at most 230", len(req), len(resp), total)
	}
}
