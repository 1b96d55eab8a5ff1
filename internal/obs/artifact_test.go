package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"milan/internal/campaign"
	"milan/internal/core"
	"milan/internal/obs"
	"milan/internal/obs/forensics"
	"milan/internal/obs/ledger"
	"milan/internal/obs/slo"
)

// line is one body line as ReadArtifact hands it over.
type line struct {
	Tag string
	Raw json.RawMessage
}

// readAll reads a kind artifact into its header and body lines.
func readAll(in []byte, kind string) (obs.ArtifactHeader, []line, error) {
	var lines []line
	h, err := obs.ReadArtifact(bytes.NewReader(in), kind, func(tag string, raw []byte) error {
		lines = append(lines, line{tag, append(json.RawMessage(nil), raw...)})
		return nil
	})
	return h, lines, err
}

// writeAll writes a header and body lines back.
func writeAll(t *testing.T, h obs.ArtifactHeader, lines []line) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := obs.NewArtifactWriter(&buf)
	aw.Header(h.Kind, h.Seed)
	for _, l := range lines {
		aw.Line(l.Tag, l.Raw)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadArtifactChecksTheEnvelope(t *testing.T) {
	const header = `{"format":"milan-artifact","v":1,"kind":"divergence"}` + "\n"
	good := header + "\n" + `{"divergence":{"seed":1}}` + "\n" + `{"divergence":{"seed":2}}` + "\n"
	h, lines, err := readAll([]byte(good), obs.ArtifactDivergence)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != obs.ArtifactDivergence || h.Seed != nil || len(lines) != 2 || string(lines[1].Raw) != `{"seed":2}` {
		t.Fatalf("read %+v, %q", h, lines)
	}
	if got := writeAll(t, h, lines); !bytes.Equal(got, []byte(strings.Replace(good, "\n\n", "\n", 1))) {
		t.Fatalf("rewritten:\n%s", got)
	}

	for name, c := range map[string]struct{ in, want string }{
		"empty":          {"", "divergence artifact: empty"},
		"no format":      {`{"v":1,"kind":"divergence"}` + "\n", `line 1: header of format "" v1 kind "divergence"`},
		"other version":  {`{"format":"milan-artifact","v":2,"kind":"divergence"}` + "\n", `line 1: header of format "milan-artifact" v2 kind`},
		"other kind":     {`{"format":"milan-artifact","v":1,"kind":"flight"}` + "\n", `v1 kind "flight", want "milan-artifact" v1 "divergence"`},
		"not a header":   {"[]\n", "line 1: header: json: cannot unmarshal array"},
		"no key":         {header + "{}\n", "line 2: 0 keys, want one tag"},
		"null":           {header + "null\n", "line 2: 0 keys, want one tag"},
		"two keys":       {header + `{"divergence":{},"x":1}` + "\n", "line 2: 2 keys, want one tag"},
		"unknown tag":    {header + "\n" + `{"span":{}}` + "\n", `line 3: no "span" line in a divergence artifact`},
		"not an object":  {header + "[1]\n", "line 2: json: cannot unmarshal array"},
		"a second head":  {header + header, "line 2: 3 keys, want one tag"},
		"torn body line": {header + `{"divergence":{"seed"`, "line 2: unexpected end of JSON input"},
	} {
		_, _, err := readAll([]byte(c.in), obs.ArtifactDivergence)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", name, err, c.want)
		}
	}
	if _, err := obs.ReadArtifact(strings.NewReader(header), "nonesuch", nil); err == nil {
		t.Error("read an artifact of no kind")
	}
	fail := errors.New("fn says no")
	_, err = obs.ReadArtifact(strings.NewReader(good), obs.ArtifactDivergence, func(string, []byte) error { return fail })
	if !errors.Is(err, fail) || !strings.Contains(err.Error(), "divergence artifact line 3: ") {
		t.Errorf("fn's error came back as %v", err)
	}
}

// TestReadArtifactStopsAtTheBound: an artifact one byte past MaxArtifact is
// an error, wherever the bound falls; one at MaxArtifact is read whole.
func TestReadArtifactStopsAtTheBound(t *testing.T) {
	header := `{"format":"milan-artifact","v":1,"kind":"divergence"}` + "\n"
	body := `{"divergence":{"detail":"` + strings.Repeat("d", 1000) + `"}}` + "\n"
	var buf bytes.Buffer
	buf.WriteString(header)
	for buf.Len()+len(body) <= obs.MaxArtifact {
		buf.WriteString(body)
	}
	buf.WriteString(strings.Repeat("\n", obs.MaxArtifact-buf.Len()))
	if _, _, err := readAll(buf.Bytes(), obs.ArtifactDivergence); err != nil {
		t.Fatalf("%d bytes: %v", buf.Len(), err)
	}
	for name, tail := range map[string]string{"a blank line": "\n", "a torn line": "{", "a whole line": body} {
		in := io.MultiReader(bytes.NewReader(buf.Bytes()), strings.NewReader(tail))
		if _, err := obs.ReadArtifact(in, obs.ArtifactDivergence, func(string, []byte) error { return nil }); !errors.Is(err, obs.ErrArtifactTooLong) {
			t.Errorf("%s past the bound: error %v", name, err)
		}
	}
}

// artifactSeeds is one artifact of every kind from its real writer, and the
// seeds of the four decoders' fuzz targets this one replaced, in the
// envelope.
func artifactSeeds(f *testing.F) []string {
	var seeds []string
	add := func(fn func(io.Writer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.String())
	}
	head := func(kind string) string {
		return `{"format":"milan-artifact","v":1,"kind":"` + kind + `"}` + "\n"
	}

	// flight
	tr := obs.NewTracer(8)
	root := tr.StartAt(3, 0, "fed.negotiate", obs.StageArrival, 9, 1)
	plan := tr.StartAt(3, root.ID(), "sched.plan", obs.StagePlan, 9, 1.1)
	plan.SetAttr("finish", 5.5)
	plan.EndAt(1.9)
	root.EndAt(2)
	add((&slo.Snapshot{Kind: slo.TriggerDeadlineMiss, Trace: 3, At: 6, Note: "job 9 late", Spans: tr.Spans(),
		Events: []obs.Event{{Time: 1.5, Type: "Committed", Job: 9, Trace: 3, Span: 2}}}).WriteJSONL)
	seeds = append(seeds,
		head(obs.ArtifactFlight)+`{"trigger":{"kind":"manual","at":0}}`+"\n",
		"",
		"\n\n",
		`{"format":"milan-artifact","v":2,"kind":"flight"}`+"\n"+`{"trigger":{"kind":"manual","at":0}}`+"\n",
	)

	// rejections
	fr := forensics.NewRecorder(4)
	s := core.NewScheduler(4, 0, &core.Options{Diagnosis: fr.Record})
	s.Admit(core.Job{ID: 1, Chains: []core.Chain{{Tasks: []core.Task{{Procs: 8, Duration: 2, Deadline: 100}}}}})
	s.Admit(core.Job{ID: 2, Chains: []core.Chain{{Tasks: []core.Task{{Procs: 2, Duration: 9, Deadline: 3}}}}})
	fr.MarkVerified(1, true)
	add(fr.WriteJSONL)
	seeds = append(seeds,
		head(obs.ArtifactRejections)+`{"record":{"seq":1,"at":0,"diag":{"job":7,"release":0,"capacity":4,"peak_used":0,"chains":[]}}}`+"\n",
		head(obs.ArtifactRejections)+`{"record":{"seq":1}}`,
		`{nope`,
	)

	// ledger
	led := &ledger.Snapshot{Version: 3, Now: 120, Capacity: 8,
		Totals: []ledger.Totals{
			{Tenant: "acme", Class: 1, ReservedArea: 640, RealizedArea: 400, Commits: 4, Completions: 3},
			{Tenant: `quo"ted`, Class: 2, ReservedArea: 10, Commits: 1, Rejections: 1},
		},
		TotalReservedArea: 650, TotalRealizedArea: 400, Commits: 5, Completions: 3, Rejections: 1}
	add(led.WriteJSONL)
	seeds = append(seeds,
		head(obs.ArtifactLedger)+`{"ledger":{}}`,
		head(obs.ArtifactLedger)+`{"ledger":{"capacity":4}}`+"\n"+`{"totals":{"tenant":"a","class":-1,"reserved_area":3}}`,
		head(obs.ArtifactLedger)+`{"ledger":{"totals":[{"tenant":"a"}]}}`,
		head(obs.ArtifactLedger)+`{"totals":{}}`,
	)

	// breach
	breach := &campaign.Artifact{Scenario: "saturation-overload", Plane: "shards=1", Seed: 1234,
		Invariant: "weighted-fair-shares", Detail: "spread exceeds 2x", Fault: "shedder"}
	add(breach.WriteJSONL)
	breach.Snapshot = &slo.Snapshot{Kind: slo.TriggerFairnessBreach, At: 42, Note: breach.Detail}
	add(breach.WriteJSONL)
	seeds = append(seeds,
		`{"format":"milan-artifact","v":1,"kind":"breach","seed":0}`+"\n"+`{"breach":{"scenario":"s","invariant":"i"}}`+"\n",
		"junk",
	)

	// divergence
	seeds = append(seeds, head(obs.ArtifactDivergence)+
		`{"divergence":{"mode":"vfs","seed":42,"phase":"sync-always","iteration":3,"crash_op":17,"recovered_lsn":9,"torn":true,"detail":"acked grant 4 lost","when":"2026-01-02T03:04:05Z"}}`+"\n"+
		`{"divergence":{"mode":"soak","seed":7,"iteration":0,"crash_op":0,"recovered_lsn":0,"torn":false,"detail":"x","when":""}}`+"\n")

	// The old decoders' empty and blank streams, in the envelope: an
	// artifact with no body, one with a blank body line, and blank lines
	// before the header.
	seeds = append(seeds,
		head(obs.ArtifactRejections),
		head(obs.ArtifactRejections)+"\n",
		head(obs.ArtifactLedger),
		"\n\n"+head(obs.ArtifactBreach),
	)
	return seeds
}

// sameJSON fails t unless a and b encode to the same JSON.
func sameJSON(t *testing.T, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s changed in a round trip:\n%s\n%s", what, ja, jb)
	}
}

// FuzzArtifactDecode is the one artifact fuzz target.  Seeded with every
// kind, it reads its input as every kind through obs.ReadArtifact and
// through both typed decoders, slo.DecodeSnapshot and
// campaign.DecodeArtifact.  Nothing panics, and whatever is accepted
// re-writes and re-reads to the same values.
func FuzzArtifactDecode(f *testing.F) {
	for _, seed := range artifactSeeds(f) {
		f.Add(seed)
	}
	kinds := []string{obs.ArtifactFlight, obs.ArtifactRejections, obs.ArtifactLedger, obs.ArtifactBreach, obs.ArtifactDivergence}
	f.Fuzz(func(t *testing.T, in string) {
		for _, kind := range kinds {
			h, lines, err := readAll([]byte(in), kind)
			if err != nil {
				continue
			}
			out := writeAll(t, h, lines)
			h2, lines2, err := readAll(out, kind)
			if err != nil {
				t.Fatalf("the rewritten %s artifact does not read: %v\n%s", kind, err, out)
			}
			if !reflect.DeepEqual(h2, h) || !bytes.Equal(writeAll(t, h2, lines2), out) {
				t.Fatalf("a %s artifact changed in a round trip:\n%s", kind, out)
			}
		}

		if snap, err := slo.DecodeSnapshot(strings.NewReader(in)); err == nil {
			var buf bytes.Buffer
			if err := snap.WriteJSONL(&buf); err != nil {
				t.Fatalf("an accepted snapshot does not write: %v", err)
			}
			again, err := slo.DecodeSnapshot(&buf)
			if err != nil {
				t.Fatalf("a rewritten snapshot does not decode: %v", err)
			}
			sameJSON(t, "the snapshot", []any{snap, snap.Spans, snap.Events}, []any{again, again.Spans, again.Events})
		}

		if a, err := campaign.DecodeArtifact(strings.NewReader(in)); err == nil {
			var buf bytes.Buffer
			if err := a.WriteJSONL(&buf); err != nil {
				t.Fatalf("an accepted breach does not write: %v", err)
			}
			b, err := campaign.DecodeArtifact(&buf)
			if err != nil {
				t.Fatalf("a rewritten breach does not decode: %v", err)
			}
			values := func(a *campaign.Artifact) []any {
				v := []any{a, a.Seed}
				if a.Snapshot != nil {
					v = append(v, a.Snapshot, a.Snapshot.Spans, a.Snapshot.Events)
				}
				return v
			}
			sameJSON(t, "the breach", values(a), values(b))
		}
	})
}
