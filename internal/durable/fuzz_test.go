package durable

import (
	"bytes"
	"testing"

	"milan/internal/core"
)

// FuzzRecordDecode: no byte sequence may panic the record decoder, and any
// payload that decodes cleanly must round-trip through encode/decode to the
// same record.  Truncated, bit-flipped and version-skewed (unknown-kind)
// inputs must come back as errors, never as crashes or silent garbage.
func FuzzRecordDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(encodeRecord(&r))
	}
	// The reserved kind 7 over an admit's body.
	seven := encodeRecord(&sampleRecords()[0])
	seven[0] = 7
	f.Add(seven)
	// Adversarial seeds: empty, lone kind byte, unknown kind, giant counts.
	f.Add([]byte{})
	f.Add([]byte{byte(KindAdmit)})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	huge := encodeRecord(&Record{Kind: KindAdmit, LSN: 1, Tenant: "t"})
	huge[len(huge)-4] = 0xff // inflate the task count field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		// A clean decode must re-encode to the exact input bytes: the
		// encoding is canonical, so decode(encode(decode(x))) == decode(x)
		// reduces to byte equality.
		re := encodeRecord(&r)
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
		r2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if r2.Kind != r.Kind || r2.LSN != r.LSN || len(r2.Tasks) != len(r.Tasks) {
			t.Fatalf("re-decode drifted: %+v vs %+v", r2, r)
		}
	})
}

// FuzzSnapshotDecode: same contract for the snapshot decoder, whose inputs
// are larger and carry a nested capacity profile and grant set.
func FuzzSnapshotDecode(f *testing.F) {
	// One scheduler of eight processors holding one live grant.
	gen, err := genesis(8, 0)
	if err != nil {
		f.Fatal(err)
	}
	gen.LSN, gen.Now = 42, 17.5
	gen.Sched.Profile.Times = []float64{0, 17.5, 21}
	gen.Sched.Profile.Used = []int{0, 4, 0}
	gen.Grants = []GrantRecord{{
		JobID: 7, Chain: 2, Quality: 0.75, Tunable: true,
		Tenant: "acme", Class: 1,
		Tasks: []core.TaskPlacement{{Task: 0, Procs: 4, Start: 17.5, Finish: 21}},
	}}
	f.Add(appendSnapshot(nil, &gen))
	empty, err := genesis(1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendSnapshot(nil, &empty))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeSnapshot(payload)
		if err != nil {
			return
		}
		re := appendSnapshot(nil, &st)
		st2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if err := DiffStates(&st2, &st); err != nil {
			t.Fatalf("snapshot round-trip drifted: %v", err)
		}
	})
}
