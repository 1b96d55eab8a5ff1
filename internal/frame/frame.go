// Package frame is the byte-stream discipline every binary format in the
// tree shares — the write-ahead log and its snapshots (internal/durable)
// and the negotiation protocol (internal/qos/qosnet):
//
//   - a frame is [len u32][crc32c u32][payload], little-endian; the length
//     is checked against the reader's limit before anything is allocated
//     and the checksum before anything is decoded;
//   - payloads are built with the Append helpers and taken apart with a
//     Cursor, a bounds-checked reader that remembers its first error, only
//     accepts canonical encodings (booleans 0/1, shortest-form varints,
//     exact payload consumption) and rejects a count the remaining bytes
//     cannot hold before the caller allocates for it.
//
// Canonical decoding is what makes decode∘encode the identity on every
// cleanly decoded payload, which the users' fuzz targets pin.  Errors carry
// the using package's name as their prefix, so a corrupt WAL still reads
// "durable: ..." and a corrupt request "qosnet: ...".
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// HeaderLen is the size of a frame's [len u32][crc32c u32] header.
	HeaderLen = 8
	// MaxString is the longest string any payload may carry.
	MaxString = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PutHeader fills hdr (HeaderLen bytes) with payload's length and checksum.
// A writer that wants one Write per frame reserves HeaderLen bytes, appends
// the payload behind them and then calls PutHeader on the two halves.
func PutHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

// AppendU32 and friends build payloads in little-endian order.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bits, so the value round-trips exactly.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends the canonical 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendStr appends s behind a u32 length, cut to MaxString.
func AppendStr(b []byte, s string) []byte {
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// Cursor is a bounds-checked payload reader.  After the first failure every
// read returns zero and Err reports that failure, so a decoder reads all its
// fields unconditionally and checks once at the end with Done.
type Cursor struct {
	pkg string
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor over payload whose errors are prefixed
// "pkg: ".
func NewCursor(pkg string, payload []byte) Cursor { return Cursor{pkg: pkg, b: payload} }

// Fail records an error (prefixed with the package name) unless one is
// already recorded.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(c.pkg+": "+format, args...)
	}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Done returns the first failure, or an error if the payload was not
// consumed exactly, or nil.
func (c *Cursor) Done() error {
	if c.err == nil && c.off != len(c.b) {
		c.Fail("%d trailing bytes after the payload's last field", len(c.b)-c.off)
	}
	return c.err
}

// Take returns the next n bytes (aliasing the payload), or nil after a
// failure.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.Fail("truncated payload (want %d bytes at %d of %d)", n, c.off, len(c.b))
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	b := c.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads 4 little-endian bytes.
func (c *Cursor) U32() uint32 {
	b := c.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads 8 little-endian bytes.
func (c *Cursor) U64() uint64 {
	b := c.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads 8 little-endian bytes as a two's-complement integer.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// F64 reads 8 bytes of IEEE-754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Bool accepts only the canonical encodings 0 and 1.
func (c *Cursor) Bool() bool {
	b := c.U8()
	if b > 1 {
		c.Fail("non-canonical bool byte %#x", b)
	}
	return b == 1
}

// Uvarint reads an unsigned LEB128 integer and rejects every encoding but
// the shortest, so each value has exactly one byte string.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	switch {
	case n == 0:
		c.Fail("truncated varint at %d of %d", c.off, len(c.b))
		return 0
	case n < 0:
		c.Fail("varint at %d overflows 64 bits", c.off)
		return 0
	case n > 1 && c.b[c.off+n-1] == 0:
		c.Fail("over-long varint at %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Varint reads a zig-zag signed integer over a canonical Uvarint.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a string behind a u32 length of at most MaxString.
func (c *Cursor) Str() string { return c.str(uint64(c.U32())) }

// VarStr reads a string behind a varint length of at most MaxString.
func (c *Cursor) VarStr() string { return c.str(c.Uvarint()) }

// VarStrBytes is VarStr without the copy: the string's bytes, aliasing the
// payload, for a caller that has its own place to keep them.
func (c *Cursor) VarStrBytes() []byte { return c.strBytes(c.Uvarint()) }

func (c *Cursor) str(n uint64) string { return string(c.strBytes(n)) }

func (c *Cursor) strBytes(n uint64) []byte {
	if n > MaxString {
		c.Fail("string length %d exceeds limit %d", n, MaxString)
		return nil
	}
	return c.Take(int(n))
}

// Count reads a u32 element count and fails unless it is at most limit and
// the remaining payload can hold that many elements of at least minElem
// bytes each — so a corrupt count never sizes an allocation.
func (c *Cursor) Count(limit uint32, minElem int, what string) int {
	return c.count(uint64(c.U32()), limit, minElem, what)
}

// VarCount is Count over a varint.
func (c *Cursor) VarCount(limit uint32, minElem int, what string) int {
	return c.count(c.Uvarint(), limit, minElem, what)
}

func (c *Cursor) count(n uint64, limit uint32, minElem int, what string) int {
	if n > uint64(limit) {
		c.Fail("%s count %d exceeds limit %d", what, n, limit)
		return 0
	}
	if c.err == nil && int(n)*minElem > len(c.b)-c.off {
		c.Fail("%s count %d exceeds remaining payload", what, n)
		return 0
	}
	return int(n)
}

// Reader reads frames from a stream through one buffered reader into one
// reused payload buffer.
type Reader struct {
	br  *bufio.Reader
	pkg string
	max uint32
	hdr [HeaderLen]byte // here rather than on Next's stack, where passing it to the reader would move it to the heap per frame
	buf []byte
}

// NewReader returns a frame reader over r that refuses payloads longer than
// max and prefixes its errors "pkg: ".
func NewReader(r io.Reader, pkg string, max uint32) *Reader {
	return &Reader{br: bufio.NewReader(r), pkg: pkg, max: max}
}

// Next returns the next frame's payload, valid until the following call.
// io.EOF means the stream ended cleanly between frames; any other error
// (truncation mid-frame, length over the limit, checksum mismatch) means
// the stream is torn or corrupt from here on.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%s: torn frame header: %w", r.pkg, err)
	}
	length := binary.LittleEndian.Uint32(r.hdr[0:4])
	want := binary.LittleEndian.Uint32(r.hdr[4:8])
	if length > r.max {
		return nil, fmt.Errorf("%s: frame length %d exceeds limit %d", r.pkg, length, r.max)
	}
	if uint32(cap(r.buf)) < length {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, fmt.Errorf("%s: torn frame payload: %w", r.pkg, err)
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%s: frame checksum mismatch (got %08x want %08x)", r.pkg, got, want)
	}
	return payload, nil
}
