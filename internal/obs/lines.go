package obs

import (
	"bufio"
	"fmt"
	"io"
)

// maxLine is the longest line Lines accepts.
const maxLine = 1 << 20

// Lines is the one line reader under the tree's line-oriented decoders (the
// JSONL artifacts, the bench trajectory, `go test -bench` text): it calls fn
// with each line of r, skipping empty lines, and stops at fn's first error.
// Every error — fn's, a line over maxLine, a failed read — comes back as
// "<what> line <n>: <cause>", n counted from 1 (empty lines included), so no
// decoder numbers its own lines or can forget to.  raw is only valid during
// the call.  What is strict about a line is the decoder's business, not this
// function's.
func Lines(r io.Reader, what string, fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s line %d: %w", what, n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s line %d: %w", what, n+1, err)
	}
	return nil
}
