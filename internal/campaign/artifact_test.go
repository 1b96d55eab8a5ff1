package campaign

import (
	"bytes"
	"strings"
	"testing"

	"milan/internal/obs/slo"
)

func sampleArtifact(withSnap bool) *Artifact {
	a := &Artifact{
		Version:   artifactVersion,
		Scenario:  "saturation-overload",
		Plane:     string(PlaneOneShard),
		Seed:      1234,
		Invariant: "weighted-fair-shares",
		Detail:    "normalized service spread 100..900 exceeds 2x",
		Fault:     string(slo.FaultShedder),
	}
	if withSnap {
		rec := slo.NewRecorder(8, 8)
		a.Snapshot = rec.Trigger(slo.TriggerFairnessBreach, 0, 42, a.Detail)
	}
	return a
}

func TestArtifactRoundTrip(t *testing.T) {
	for _, withSnap := range []bool{true, false} {
		a := sampleArtifact(withSnap)
		var buf bytes.Buffer
		if err := a.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeArtifact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("withSnap=%t: %v", withSnap, err)
		}
		if got.Scenario != a.Scenario || got.Plane != a.Plane || got.Seed != a.Seed ||
			got.Invariant != a.Invariant || got.Detail != a.Detail || got.Fault != a.Fault {
			t.Fatalf("withSnap=%t: header drifted: %+v vs %+v", withSnap, got, a)
		}
		if withSnap != (got.Snapshot != nil) {
			t.Fatalf("withSnap=%t but decoded snapshot=%v", withSnap, got.Snapshot)
		}
		if v := ReplayArtifact(got); v.Fault != string(slo.FaultShedder) {
			t.Fatalf("withSnap=%t: replay fault %q", withSnap, v.Fault)
		}
	}
}

func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"blank":         "\n\n\n",
		"not json":      "this is not json\n",
		"wrong version": `{"v":99,"scenario":"s","invariant":"i"}` + "\n",
		"no scenario":   `{"v":1,"invariant":"i"}` + "\n",
		"no invariant":  `{"v":1,"scenario":"s"}` + "\n",
		"bad snapshot":  `{"v":1,"scenario":"s","invariant":"i"}` + "\nnot a snapshot line\n",
	}
	for name, in := range cases {
		if _, err := DecodeArtifact(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzArtifactDecode asserts the decoder never panics and that anything
// it accepts re-encodes and decodes to the same header.
func FuzzArtifactDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleArtifact(true).WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := sampleArtifact(false).WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"v":1,"scenario":"s","invariant":"i"}` + "\n"))
	f.Add([]byte("\n\n{\"v\":1}\n"))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.WriteJSONL(&out); err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		b, err := DecodeArtifact(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if b.Scenario != a.Scenario || b.Invariant != a.Invariant || b.Seed != a.Seed {
			t.Fatalf("round trip drifted: %+v vs %+v", b, a)
		}
	})
}
