package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTripAndTorn(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}}
	for _, p := range payloads {
		if _, err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data), "test", 1<<10)
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}

	// A frame cut mid-header is torn, not EOF.
	r = NewReader(bytes.NewReader(data[:len(data)-HeaderLen-1-2]), "test", 1<<10)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF || !strings.HasPrefix(err.Error(), "test: torn frame") {
		t.Fatalf("torn frame: got %v", err)
	}

	// A flipped payload bit fails the checksum.
	flipped := append([]byte(nil), data...)
	flipped[HeaderLen+1] ^= 0x01
	r = NewReader(bytes.NewReader(flipped), "test", 1<<10)
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip: got %v", err)
	}

	// A length over the limit is refused before the payload is read (and
	// before anything is allocated for it).
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	huge = append(huge, 0, 0, 0, 0)
	r = NewReader(bytes.NewReader(huge), "test", 1<<10)
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "exceeds limit 1024") {
		t.Fatalf("oversized frame: got %v", err)
	}
	if cap(r.buf) != 0 {
		t.Fatalf("oversized frame allocated %d bytes", cap(r.buf))
	}
}

// The reader hands out one buffer: a short frame after a long one must not
// show the long one's tail.
func TestReaderReusesItsBuffer(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []string{"a long first payload", "short"} {
		if _, err := Write(&buf, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data), "test", 1<<10)
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Next()
	if err != nil || string(second) != "short" {
		t.Fatalf("second frame = %q, %v", second, err)
	}
	if &first[0] != &second[0] {
		t.Fatal("second frame did not reuse the first frame's buffer")
	}
}

func TestCursorFixedWidthRoundTrip(t *testing.T) {
	b := AppendU32(nil, 0xdeadbeef)
	b = AppendU64(b, 1<<63|5)
	neg := int64(-7)
	b = AppendU64(b, uint64(neg))
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendStr(b, "tenant")
	b = append(b, 0x2a)
	c := NewCursor("test", b)
	if v := c.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := c.U64(); v != 1<<63|5 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := c.I64(); v != -7 {
		t.Fatalf("I64 = %d", v)
	}
	if v := c.F64(); math.Float64bits(v) != 1<<63 {
		t.Fatalf("F64 = %v (bits %#x)", v, math.Float64bits(v))
	}
	if !c.Bool() || c.Bool() {
		t.Fatal("Bool")
	}
	if v := c.Str(); v != "tenant" {
		t.Fatalf("Str = %q", v)
	}
	if err := c.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done with a byte left: %v", err)
	}
	c = NewCursor("test", b)
	c.Take(len(b))
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorVarints(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxUint64} {
		c := NewCursor("test", binary.AppendUvarint(nil, v))
		if got := c.Uvarint(); got != v || c.Done() != nil {
			t.Fatalf("Uvarint(%d) = %d, %v", v, got, c.Err())
		}
	}
	for _, v := range []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64} {
		c := NewCursor("test", binary.AppendVarint(nil, v))
		if got := c.Varint(); got != v || c.Done() != nil {
			t.Fatalf("Varint(%d) = %d, %v", v, got, c.Err())
		}
	}
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"over-long zero":  {[]byte{0x80, 0x00}, "over-long varint"},
		"over-long one":   {[]byte{0x81, 0x80, 0x00}, "over-long varint"},
		"truncated":       {[]byte{0x80}, "truncated varint"},
		"empty":           {nil, "truncated varint"},
		"eleven bytes":    {[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, "overflows"},
		"tenth byte of 2": {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "overflows"},
	} {
		c := NewCursor("test", tc.b)
		if v := c.Uvarint(); v != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), tc.want) {
			t.Fatalf("%s: got %d, %v; want an error naming %q", name, v, c.Err(), tc.want)
		}
	}
}

func TestCursorRejectsBeforeAllocating(t *testing.T) {
	// Bool byte 2.
	c := NewCursor("test", []byte{2})
	if c.Bool(); c.Err() == nil || !strings.Contains(c.Err().Error(), "non-canonical bool") {
		t.Fatalf("bool 2: %v", c.Err())
	}
	// A string longer than MaxString, by either length prefix.
	c = NewCursor("test", AppendU32(nil, MaxString+1))
	if c.Str(); c.Err() == nil || !strings.Contains(c.Err().Error(), "string length 4097 exceeds limit") {
		t.Fatalf("long Str: %v", c.Err())
	}
	c = NewCursor("test", binary.AppendUvarint(nil, 1<<40))
	if c.VarStr(); c.Err() == nil || !strings.Contains(c.Err().Error(), "exceeds limit") {
		t.Fatalf("long VarStr: %v", c.Err())
	}
	// A count over its limit, and one the remaining bytes cannot hold.
	c = NewCursor("test", AppendU32(nil, 65537))
	if n := c.Count(65536, 1, "task"); n != 0 || !strings.Contains(c.Err().Error(), "task count 65537 exceeds limit 65536") {
		t.Fatalf("count over limit: %d, %v", n, c.Err())
	}
	c = NewCursor("test", append(binary.AppendUvarint(nil, 3), 1, 2, 3, 4, 5))
	if n := c.VarCount(65536, 2, "task"); n != 0 || !strings.Contains(c.Err().Error(), "task count 3 exceeds remaining payload") {
		t.Fatalf("count over payload: %d, %v", n, c.Err())
	}
	// The first failure sticks; later reads return zero without moving.
	if c.U8() != 0 || c.Take(1) != nil || c.VarStr() != "" {
		t.Fatal("reads after a failure returned data")
	}
	if !strings.HasPrefix(c.Err().Error(), "test: ") {
		t.Fatalf("error %q lacks the package prefix", c.Err())
	}
}

// FuzzFrameReader feeds Reader a stream of frames, as the WAL's recovery and
// the negotiation protocol's server do: Next never panics, every frame it
// accepts re-encodes with PutHeader to exactly the bytes it consumed, a
// stream ends in io.EOF only when those frames were all of it (anything
// else — a torn header or payload, a length over the limit, a bad checksum
// — ends in another error), and the payload buffer never grows past the
// reader's limit.
func FuzzFrameReader(f *testing.F) {
	frames := func(payloads ...string) []byte {
		var b bytes.Buffer
		for _, p := range payloads {
			Write(&b, []byte(p))
		}
		return b.Bytes()
	}
	clean := frames("a", "", "three frames")
	f.Add(clean, uint16(64))
	f.Add([]byte{}, uint16(64))
	f.Add(clean[:len(clean)-3], uint16(64))         // torn payload
	f.Add(clean[:len(frames("a"))+5], uint16(64))   // torn header
	f.Add(frames("over the limit"), uint16(4))      // length over the limit
	f.Add(append(frames("x"), clean...), uint16(0)) // a limit only empty frames fit
	bad := frames("crc")
	bad[len(bad)-1] ^= 1
	f.Add(append(frames("ok"), bad...), uint16(64)) // checksum mismatch
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		r := NewReader(bytes.NewReader(data), "fuzz", uint32(limit))
		off := 0
		for {
			payload, err := r.Next()
			if uint32(cap(r.buf)) > uint32(limit) {
				t.Fatalf("buffer grew to %d past the limit %d", cap(r.buf), limit)
			}
			if err == io.EOF {
				if off != len(data) {
					t.Fatalf("io.EOF after %d of %d bytes: a stream that is not a clean run of frames ended cleanly", off, len(data))
				}
				return
			}
			if err != nil {
				if off == len(data) {
					t.Fatalf("%v after a clean run of frames", err)
				}
				return
			}
			enc := make([]byte, HeaderLen, HeaderLen+len(payload))
			PutHeader(enc, payload)
			enc = append(enc, payload...)
			if end := off + len(enc); end > len(data) || !bytes.Equal(enc, data[off:end]) {
				t.Fatalf("the frame accepted at byte %d re-encodes to %x, not to the bytes it consumed", off, enc)
			}
			off += len(enc)
		}
	})
}
