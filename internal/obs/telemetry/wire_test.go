package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/latency"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// sampleSnapshot is a fully-populated registry snapshot exercising every
// metric family the wire carries.
func sampleSnapshot() obs.Snapshot {
	return obs.Snapshot{
		Counters: map[string]int64{"jobs_admitted": 41, "jobs_rejected": 7},
		Gauges:   map[string]float64{"inflight": 3.5},
		Histograms: map[string]obs.HistSnapshot{
			"admit_latency": {Lo: 0, Hi: 1, Buckets: []int64{1, 2, 3, 0}, Under: 1, Over: 2, Count: 9, Sum: 4.25},
		},
		Stats: map[string]obs.StatSnapshot{
			"slack": {N: 12, Mean: 0.5, Std: 0.125, CI95: 0.07},
		},
	}
}

func sampleSpans() []obs.SpanRec {
	return []obs.SpanRec{
		{Trace: 9, ID: 10, Name: "qosnet.negotiate", Stage: obs.StageArrival, Job: 3, Start: 1, End: 2},
		{Trace: 9, ID: 11, Parent: 10, Name: "fed.route", Stage: obs.StageRoute, Job: 3, Start: 1.1, End: 1.9,
			Err: "rejected", Attrs: map[string]float64{"shard": 2, "finish": 8.5}},
	}
}

func sampleMsgs(t testing.TB) []*Msg {
	led := ledger.New(ledger.Config{}).Snapshot()
	return []*Msg{
		{Kind: KindHello, Hello: Hello{Version: Version, Node: "n1", Session: 7, Now: 1.5, Interval: 0.2}},
		{Kind: KindSnapshot, Snapshot: sampleSnapshot(), Help: map[string]string{"jobs_admitted": "Jobs \"admitted\".\n"}},
		{Kind: KindDelta, Delta: Delta{
			Seq:      3,
			Counters: map[string]int64{"jobs_admitted": 2},
			Gauges:   map[string]float64{"inflight": -1},
			Hists:    map[string]obs.HistSnapshot{"admit_latency": {Lo: 0, Hi: 1, Buckets: []int64{0, 1, 0, 0}, Count: 1, Sum: 0.3}},
			Stats:    map[string]obs.StatSnapshot{"slack": {N: 13, Mean: 0.51, Std: 0.12, CI95: 0.06}},
		}},
		{Kind: KindSpans, Spans: sampleSpans()},
		{Kind: KindSLO, SLO: slo.EngineState{
			Admitted: 5, Rejected: 1, Completed: 4, InFlight: 1, DeadlineMisses: 1, BurnThreshold: 2,
			Objectives: []slo.ObjectiveState{
				{Name: slo.ObjectiveLatency, Budget: 0.01, Active: true, ShortBad: 1, ShortTotal: 10, LongBad: 2, LongTotal: 100},
			},
		}},
		{Kind: KindHeadroom, Headroom: core.Headroom{
			From: 1, Horizon: 100, MaxProcs: 8, MaxDuration: 40, MaxArea: 80,
			BestHole: core.Hole{Start: 2, End: 42, Procs: 2},
		}},
		{Kind: KindLedger, Ledger: led},
		{Kind: KindExemplars, Exemplars: []latency.Exemplar{
			{Trace: 0xdeadbeef, Job: 42, Shard: 3, Total: 51_000_000,
				Durs: [latency.NumPhases]int64{1000, 50_000_000, 0, 900_000, 90_000, 9_000}, At: 1723.5},
			{Trace: 0, Job: -1, Shard: -1, Total: 700,
				Durs: [latency.NumPhases]int64{100, 100, 100, 100, 100, 200}, At: 1724.25},
		}},
		{Kind: KindHeartbeat, Heartbeat: Heartbeat{Now: 2.5, Seq: 9, DroppedFrames: 1, DroppedSpans: 3, SpanTotal: 44}},
	}
}

// Every message kind must survive an encode/decode round trip intact.
func TestMsgRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs(t) {
		payload, err := EncodeMsg(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		got, err := DecodeMsg(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v round trip drifted:\n got %+v\nwant %+v", m.Kind, got, m)
		}
		// Canonical: re-encoding the decoded message reproduces the bytes.
		re, err := EncodeMsg(got)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", m.Kind, err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("%v encoding is not canonical", m.Kind)
		}
	}
}

// WriteMsg/ReadMsg must stream frames over a byte pipe and reject
// corruption anywhere in the frame: any single flipped bit fails the
// crc32c (or a structural check), never yields a wrong message.
func TestFrameStreamAndCorruption(t *testing.T) {
	msgs := sampleMsgs(t)
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d drifted", i)
		}
	}

	for _, bit := range []int{0, 17, 35, len(stream)/2 | 1, len(stream) - 1} {
		mut := append([]byte(nil), stream...)
		mut[bit] ^= 0x40
		r := NewReader(bytes.NewReader(mut))
		for {
			m, err := ReadMsg(r)
			if err != nil {
				break // corruption detected somewhere in the stream: good
			}
			// A frame that still decodes must equal one of the originals —
			// the flip hit a later frame.
			ok := false
			for _, want := range msgs {
				if reflect.DeepEqual(m, want) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("bit flip at %d yielded a novel message: %+v", bit, m)
			}
		}
	}
}

// Truncated payloads and trailing garbage must error, not panic or
// silently succeed.
func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	for _, m := range sampleMsgs(t) {
		payload, err := EncodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeMsg(payload[:cut]); err == nil {
				t.Fatalf("%v: truncation at %d/%d decoded cleanly", m.Kind, cut, len(payload))
			}
		}
		if _, err := DecodeMsg(append(append([]byte(nil), payload...), 0)); err == nil {
			t.Fatalf("%v: trailing byte accepted", m.Kind)
		}
	}
}

func TestDecodeRejectsUnknownKindAndEmpty(t *testing.T) {
	if _, err := DecodeMsg(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := DecodeMsg([]byte{0xee}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// The snapshot encoding sorts metric names, and the decoder enforces the
// strictly-increasing order — out-of-order or duplicate names are a
// non-canonical stream and must be rejected.
func TestDecodeRejectsUnsortedNames(t *testing.T) {
	a, err := EncodeMsg(&Msg{Kind: KindDelta, Delta: Delta{Seq: 1, Counters: map[string]int64{"a": 1, "b": 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two sorted single-byte names in place: "a"..."b" -> "b"..."a".
	ia, ib := bytes.IndexByte(a, 'a'), bytes.IndexByte(a, 'b')
	if ia < 0 || ib < 0 {
		t.Fatal("names not found in encoding")
	}
	a[ia], a[ib] = 'b', 'a'
	if _, err := DecodeMsg(a); err == nil {
		t.Fatal("out-of-order metric names accepted")
	}
}

func TestEncodeRejectsNilLedger(t *testing.T) {
	if _, err := EncodeMsg(&Msg{Kind: KindLedger}); err == nil {
		t.Fatal("nil ledger snapshot encoded")
	}
}
