package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// An artifact is how a measurement leaves the process as a file: a flight
// snapshot, the rejection records, a ledger snapshot, a campaign breach, a
// crashtest divergence.  Every kind is one envelope of JSON Lines:
//
//	{"format":"milan-artifact","v":1,"kind":"flight"}
//	{"trigger":{"kind":"deadline-miss","at":6}}
//	{"span":{...}}
//
// The first line is the header, whose v is the only version any artifact
// has and whose seed is there when a seed reproduces the artifact.  Every
// later line is a JSON object with exactly one key, its tag, drawn from the
// tags its kind allows.  An ArtifactWriter writes it; ReadArtifact is the
// one reader.
const (
	artifactFormat  = "milan-artifact"
	artifactVersion = 1
	// MaxArtifact is the most bytes ReadArtifact reads: past it the
	// artifact is an error, never a shorter artifact.
	MaxArtifact = 16 << 20

	ArtifactFlight     = "flight"
	ArtifactRejections = "rejections"
	ArtifactLedger     = "ledger"
	ArtifactBreach     = "breach"
	ArtifactDivergence = "divergence"
)

// artifactTags is, per kind, the tags its body lines may carry.
var artifactTags = map[string][]string{
	ArtifactFlight:     {"trigger", "span", "event"},
	ArtifactRejections: {"record"},
	ArtifactLedger:     {"ledger", "totals"},
	ArtifactBreach:     {"breach", "trigger", "span", "event"},
	ArtifactDivergence: {"divergence"},
}

// ErrArtifactTooLong is what ReadArtifact returns past MaxArtifact bytes.
var ErrArtifactTooLong = fmt.Errorf("artifact over %d bytes", MaxArtifact)

// ArtifactHeader is an artifact's first line.
type ArtifactHeader struct {
	Format string `json:"format"`
	V      int    `json:"v"`
	Kind   string `json:"kind"`
	Seed   *int64 `json:"seed,omitempty"`
}

// An ArtifactWriter writes an artifact through one buffer.  Its first
// error sticks: after it Header and Line do nothing, and Flush returns it.
type ArtifactWriter struct {
	bw  *bufio.Writer
	err error
}

// NewArtifactWriter returns a writer onto w.
func NewArtifactWriter(w io.Writer) *ArtifactWriter {
	return &ArtifactWriter{bw: bufio.NewWriter(w)}
}

// Header writes the header line of a kind artifact; seed is nil when no
// seed reproduces it.
func (a *ArtifactWriter) Header(kind string, seed *int64) {
	a.line(json.Marshal(ArtifactHeader{Format: artifactFormat, V: artifactVersion, Kind: kind, Seed: seed}))
}

// Line writes one body line, {"<tag>":<v>}, v encoded as json.Marshal
// encodes it.
func (a *ArtifactWriter) Line(tag string, v any) {
	b, err := json.Marshal(v)
	a.line(append(append([]byte(`{"`+tag+`":`), b...), '}'), err)
}

func (a *ArtifactWriter) line(b []byte, err error) {
	if a.err == nil && err == nil {
		_, err = a.bw.Write(append(b, '\n'))
	}
	if a.err == nil {
		a.err = err
	}
}

// Flush writes out what is buffered and returns the first error.
func (a *ArtifactWriter) Flush() error {
	if a.err == nil {
		a.err = a.bw.Flush()
	}
	return a.err
}

// CreateArtifact creates the file at path and writes an artifact into it
// with write (a WriteJSONL method value).
func CreateArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadArtifact is the one artifact reader: it checks the header's format,
// version and kind, then calls fn with each body line's tag and value.  A
// body line with no key, with more than one, or with a tag its kind does
// not allow is an error, and so is an artifact past MaxArtifact bytes.
// Every error about a line names it, "<kind> artifact line <n>: <cause>",
// through Lines.  raw is only valid during the call.
func ReadArtifact(r io.Reader, kind string, fn func(tag string, raw []byte) error) (ArtifactHeader, error) {
	var h ArtifactHeader
	tags, ok := artifactTags[kind]
	if !ok {
		return h, fmt.Errorf("obs: no artifact kind %q", kind)
	}
	what := kind + " artifact"
	lim := &io.LimitedReader{R: r, N: MaxArtifact + 1}
	header := false
	err := Lines(lim, what, func(raw []byte) error {
		if lim.N == 0 {
			return ErrArtifactTooLong
		}
		if !header {
			header = true
			if err := json.Unmarshal(raw, &h); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if h.Format != artifactFormat || h.V != artifactVersion || h.Kind != kind {
				return fmt.Errorf("header of format %q v%d kind %q, want %q v%d %q",
					h.Format, h.V, h.Kind, artifactFormat, artifactVersion, kind)
			}
			return nil
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(raw, &line); err != nil {
			return err
		}
		if len(line) != 1 {
			return fmt.Errorf("%d keys, want one tag", len(line))
		}
		for tag, v := range line {
			if !slices.Contains(tags, tag) {
				return fmt.Errorf("no %q line in a %s", tag, what)
			}
			return fn(tag, v)
		}
		return nil
	})
	switch {
	case err != nil:
		return h, err
	case lim.N == 0:
		return h, fmt.Errorf("%s: %w", what, ErrArtifactTooLong)
	case !header:
		return h, fmt.Errorf("%s: empty, no header line", what)
	}
	return h, nil
}
