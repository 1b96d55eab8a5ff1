package campaign

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"milan/internal/obs"
	"milan/internal/obs/slo"
)

func sampleArtifact(withSnap bool) *Artifact {
	a := &Artifact{
		Scenario:  "saturation-overload",
		Plane:     string(planeOneShard),
		Seed:      1234,
		Invariant: "weighted-fair-shares",
		Detail:    "normalized service spread 100..900 exceeds 2x",
		Fault:     "shedder",
	}
	if withSnap {
		a.Snapshot = &slo.Snapshot{Kind: slo.TriggerFairnessBreach, At: 42, Note: a.Detail}
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
			t.Fatalf("withSnap=%t: breach drifted: %+v vs %+v", withSnap, got, a)
		}
		if withSnap != (got.Snapshot != nil) {
			t.Fatalf("withSnap=%t but decoded snapshot=%v", withSnap, got.Snapshot)
		}
		if v := ReplayArtifact(got); v.Fault != "shedder" {
			t.Fatalf("withSnap=%t: replay fault %q", withSnap, v.Fault)
		}
	}
}

func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	const header = `{"format":"milan-artifact","v":1,"kind":"breach","seed":3}` + "\n"
	const breach = `{"breach":{"scenario":"s","invariant":"i"}}` + "\n"
	cases := map[string]string{
		"empty":           "",
		"blank":           "\n\n\n",
		"not json":        "this is not json\n",
		"old header":      `{"v":1,"scenario":"s","invariant":"i"}` + "\n",
		"wrong version":   `{"format":"milan-artifact","v":99,"kind":"breach","seed":3}` + "\n" + breach,
		"another kind":    `{"format":"milan-artifact","v":1,"kind":"flight","seed":3}` + "\n" + breach,
		"no seed":         `{"format":"milan-artifact","v":1,"kind":"breach"}` + "\n" + breach,
		"no breach":       header,
		"no scenario":     header + `{"breach":{"invariant":"i"}}` + "\n",
		"no invariant":    header + `{"breach":{"scenario":"s"}}` + "\n",
		"two breaches":    header + breach + breach,
		"trigger first":   header + `{"trigger":{"kind":"manual"}}` + "\n" + breach,
		"span first":      header + breach + `{"span":{"trace":1}}` + "\n",
		"bad snapshot":    header + breach + "not a snapshot line\n",
		"two triggers":    header + breach + `{"trigger":{"kind":"manual"}}` + "\n" + `{"trigger":{"kind":"manual"}}` + "\n",
		"a ledger line":   header + breach + `{"ledger":{}}` + "\n",
		"two tags a line": header + `{"breach":{"scenario":"s","invariant":"i"},"trigger":{"kind":"manual"}}` + "\n",
	}
	for name, in := range cases {
		if _, err := DecodeArtifact(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestOversizedArtifactIsAnError writes a breach artifact past
// obs.MaxArtifact with a line ending exactly at the bound: a reader that
// stops at the bound without saying so decodes a whole-looking artifact
// that lacks its tail.
func TestOversizedArtifactIsAnError(t *testing.T) {
	a := sampleArtifact(false)
	a.Snapshot = &slo.Snapshot{Kind: slo.TriggerFairnessBreach, Note: "n"}
	reason := strings.Repeat("r", 4000)
	n := obs.MaxArtifact/len(reason) + 16
	for i := 0; i < n; i++ {
		a.Snapshot.Events = append(a.Snapshot.Events, obs.Event{Time: float64(i), Type: "Rejected", Job: i, Reason: reason})
	}
	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Lengthen the trigger's note, which precedes every event line, until
	// an event line ends exactly at the bound.
	whole := bytes.LastIndexByte(buf.Bytes()[:obs.MaxArtifact], '\n') + 1
	a.Snapshot.Note += strings.Repeat("n", obs.MaxArtifact-whole)
	buf.Reset()
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[obs.MaxArtifact-1] != '\n' || buf.Len() <= obs.MaxArtifact {
		t.Fatalf("the artifact (%d bytes) has no line end at the bound", buf.Len())
	}
	got, err := DecodeArtifact(&buf)
	if err == nil {
		t.Fatalf("decoded %d of %d events without an error", len(got.Snapshot.Events), n)
	}
	if !errors.Is(err, obs.ErrArtifactTooLong) {
		t.Fatalf("error %q is not obs.ErrArtifactTooLong", err)
	}
}
