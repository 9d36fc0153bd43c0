// Package frame is the one container for every byte that leaves memory: a
// magic/version header, then frames of
// [u32 payload length | u32 CRC-32 (IEEE) of the payload | payload], all
// little-endian. The evidence WAL ("SYAW") and the shard TCP stream ("SYAH")
// are this layout under two magics; each package declares its Format beside
// its payload codec and keeps only its policy (truncate a torn log, close a
// corrupt connection). Bounds-checked payload reads (Cursor) live here too,
// and nowhere else.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderSize is magic + version; FrameHeaderSize is payload length + CRC.
const HeaderSize, FrameHeaderSize = 8, 8

var le = binary.LittleEndian

// Format identifies one use of the container: the magic and version that
// open every file or stream, the largest payload a frame may carry (a longer
// length prefix is corruption, not an allocation request) and the name the
// format goes by in errors.
type Format struct {
	Magic, Version uint32
	MaxPayload     uint32
	Name           string
}

// AppendHeader appends the magic/version header to b.
func (f Format) AppendHeader(b []byte) []byte {
	return le.AppendUint32(le.AppendUint32(b, f.Magic), f.Version)
}

// CheckHeader validates the header at the start of b. A wrong magic or
// version is the wrong file, never a tear: callers must not repair it.
func (f Format) CheckHeader(b []byte) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("%s truncated (%d bytes)", f.Name, len(b))
	}
	if m := le.Uint32(b); m != f.Magic {
		return fmt.Errorf("not a %s file (magic %08x)", f.Name, m)
	}
	if v := le.Uint32(b[4:]); v != f.Version {
		return fmt.Errorf("unsupported %s version %d (want %d)", f.Name, v, f.Version)
	}
	return nil
}

// Append appends one frame holding payload to b, growing b at most once.
func Append(b, payload []byte) []byte {
	b = le.AppendUint32(slices.Grow(b, FrameHeaderSize+len(payload)), uint32(len(payload)))
	b = le.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// next returns the verified payload of the frame that starts b.
func (f Format) next(b []byte) ([]byte, error) {
	if len(b) < FrameHeaderSize {
		return nil, fmt.Errorf("torn frame header (%d bytes)", len(b))
	}
	n, payload := le.Uint32(b), b[FrameHeaderSize:]
	if n > f.MaxPayload {
		return nil, fmt.Errorf("payload length %d exceeds the %d-byte limit", n, f.MaxPayload)
	}
	if uint64(n) > uint64(len(payload)) {
		return nil, fmt.Errorf("torn payload (%d of %d bytes)", len(payload), n)
	}
	payload = payload[:n]
	if got, want := crc32.ChecksumIEEE(payload), le.Uint32(b[4:]); got != want {
		return nil, fmt.Errorf("checksum mismatch (got %08x, want %08x): torn or corrupted", got, want)
	}
	return payload, nil
}

// Scan checks raw's header and hands yield each frame's payload (a subslice
// of raw) in order, stopping at the first frame that is short, oversized,
// fails its CRC or is refused by yield. good is the end of the longest clean
// prefix: 0 when the header itself was rejected, otherwise a frame boundary.
// err is nil exactly when raw is clean to its end; otherwise it says what
// ended the prefix and at which offset. A strict reader fails on err; a
// tolerant one fails only on good == 0 and truncates the torn tail at good.
func (f Format) Scan(raw []byte, yield func(payload []byte) error) (good int, err error) {
	if err := f.CheckHeader(raw); err != nil {
		return 0, err
	}
	for good = HeaderSize; good < len(raw); {
		payload, err := f.next(raw[good:])
		if err == nil {
			err = yield(payload)
		}
		if err != nil {
			return good, fmt.Errorf("%s frame at offset %d: %w", f.Name, good, err)
		}
		good += FrameHeaderSize + len(payload)
	}
	return good, nil
}

// Read reads one frame from r and returns its verified payload. A length
// prefix beyond MaxPayload is rejected before anything is read for it.
func (f Format) Read(r io.Reader) ([]byte, error) {
	b := make([]byte, FrameHeaderSize)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	if n := le.Uint32(b); n <= f.MaxPayload {
		b = append(b, make([]byte, n)...)
		if _, err := io.ReadFull(r, b[FrameHeaderSize:]); err != nil {
			return nil, err
		}
	}
	return f.next(b)
}

// Cursor reads little-endian fields off a payload. The first read past the
// end latches Err, naming the payload offset, and zero-values every later
// read, so a decoder reads straight through and checks Err or Done once.
type Cursor struct {
	Buf []byte // the bytes not yet read
	Err error
	off int // bytes consumed, for error messages
}

// Done reports Err, or an error naming the bytes left unread.
func (c *Cursor) Done() error {
	if c.Err == nil && len(c.Buf) > 0 {
		c.Err = fmt.Errorf("payload offset %d: %d trailing bytes", c.off, len(c.Buf))
	}
	return c.Err
}

// Bytes returns the next n bytes (a subslice of the payload).
func (c *Cursor) Bytes(n int) []byte {
	if c.Err == nil && (n < 0 || n > len(c.Buf)) {
		c.Err = fmt.Errorf("payload offset %d: need %d bytes, %d remain", c.off, n, len(c.Buf))
	}
	if c.Err != nil {
		return nil
	}
	b := c.Buf[:n]
	c.Buf, c.off = c.Buf[n:], c.off+n
	return b
}

func (c *Cursor) U8() uint8   { return uint8(c.uint(1)) }
func (c *Cursor) U16() uint16 { return uint16(c.uint(2)) }
func (c *Cursor) U32() uint32 { return uint32(c.uint(4)) }
func (c *Cursor) U64() uint64 { return c.uint(8) }

// uint reads an n-byte little-endian unsigned integer.
func (c *Cursor) uint(n int) (v uint64) {
	for i, b := range c.Bytes(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Count reads a u32 element count and latches an error unless count × elem
// bytes remain (elem ≥ 1: the least one element occupies), so the caller may
// allocate count elements before reading any of them.
func (c *Cursor) Count(elem int) int { return c.fits(uint64(c.U32()), elem) }

// Count16 is Count for a u16 prefix.
func (c *Cursor) Count16(elem int) int { return c.fits(uint64(c.U16()), elem) }

func (c *Cursor) fits(n uint64, elem int) int {
	if c.Err == nil && n > uint64(len(c.Buf)/elem) {
		c.Err = fmt.Errorf("payload offset %d: count %d × %d bytes exceeds the %d remaining", c.off, n, elem, len(c.Buf))
		n = 0
	}
	return int(n) // 0 after any failed read
}

// Str reads a u32 length-prefixed string.
func (c *Cursor) Str() string { return string(c.Bytes(c.Count(1))) }
