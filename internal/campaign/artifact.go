package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"milan/internal/obs"
	"milan/internal/obs/slo"
)

// Artifact is one invariant breach persisted for replay: the campaign
// context (scenario, plane, the seed that reproduces the run), the broken
// invariant, the localized fault and — when the flight recorder caught
// the breach — the full slo.Snapshot, so `slo.Replay` reproduces the
// verdict anywhere from the file alone.
//
// On disk it is a breach artifact (obs.ReadArtifact): the header carries
// the seed, one breach line the exported fields below, and the embedded
// snapshot's own lines follow.  An artifact without a snapshot is valid —
// some invariants, like capacity conservation, are convicted by
// construction rather than by spans.
type Artifact struct {
	Scenario  string `json:"scenario"`
	Plane     string `json:"plane"`
	Seed      int64  `json:"-"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail,omitempty"`
	Fault     string `json:"fault,omitempty"`

	Snapshot *slo.Snapshot `json:"-"`
}

// WriteJSONL writes the artifact: the header, the breach line, then the
// snapshot's lines when one is attached.
func (a *Artifact) WriteJSONL(w io.Writer) error {
	aw := obs.NewArtifactWriter(w)
	aw.Header(obs.ArtifactBreach, &a.Seed)
	aw.Line("breach", a)
	if a.Snapshot != nil {
		a.Snapshot.WriteLines(aw)
	}
	return aw.Flush()
}

// DecodeArtifact reads a breach artifact back (the round trip of
// WriteJSONL): the breach line first, then the snapshot's lines, which
// slo.Snapshot.DecodeLine folds.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	h, err := obs.ReadArtifact(r, obs.ArtifactBreach, func(tag string, raw []byte) error {
		switch {
		case tag == "breach" && a.Invariant != "":
			return errors.New("a second breach line")
		case tag == "breach":
			err := json.Unmarshal(raw, &a)
			if err == nil && (a.Scenario == "" || a.Invariant == "") {
				err = errors.New("a breach without a scenario or an invariant")
			}
			return err
		case a.Invariant == "":
			return fmt.Errorf("a %s line before the breach line", tag)
		case a.Snapshot == nil:
			a.Snapshot = new(slo.Snapshot)
		}
		return a.Snapshot.DecodeLine(tag, raw)
	})
	switch {
	case err != nil:
		return nil, err
	case a.Invariant == "":
		return nil, errors.New("campaign: breach artifact without a breach line")
	case h.Seed == nil:
		return nil, errors.New("campaign: breach artifact without a seed")
	}
	a.Seed = *h.Seed
	return &a, nil
}

// ReplayArtifact localizes the artifact's fault from its own contents:
// the embedded snapshot's verdict when one is attached, else the fault
// recorded by construction at breach time.
func ReplayArtifact(a *Artifact) slo.Verdict {
	if a.Snapshot != nil {
		return slo.Replay(a.Snapshot)
	}
	return slo.Verdict{Fault: a.Fault, Reason: a.Detail}
}
