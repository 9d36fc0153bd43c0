package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

var testFormat = Format{Magic: 0x53594154, Version: 3, MaxPayload: 1 << 10, Name: "test"}

// image frames payloads under testFormat.
func image(payloads ...string) []byte {
	b := testFormat.AppendHeader(nil)
	for _, p := range payloads {
		b = Append(b, []byte(p))
	}
	return b
}

// scanAll runs Scan collecting every payload.
func scanAll(raw []byte) (got []string, good int, err error) {
	good, err = testFormat.Scan(raw, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, good, err
}

func TestHeaderBytes(t *testing.T) {
	want := []byte{0x54, 0x41, 0x59, 0x53, 3, 0, 0, 0}
	if got := testFormat.AppendHeader(nil); !bytes.Equal(got, want) {
		t.Fatalf("header = % x, want % x", got, want)
	}
	frm := Append(nil, []byte("abc"))
	if len(frm) != FrameHeaderSize+3 || binary.LittleEndian.Uint32(frm) != 3 || string(frm[FrameHeaderSize:]) != "abc" {
		t.Fatalf("frame = % x", frm)
	}
	payload := make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() { frm = Append(nil, payload) }); n != 1 {
		t.Errorf("Append(nil, payload) allocates %v times, want 1", n)
	}
}

// TestScan is the one table of what ends a clean prefix. Every row holds for
// the tolerant reading (good, yielded payloads) and the strict one (err).
func TestScan(t *testing.T) {
	clean := image("alpha", "", "gamma")
	second := HeaderSize + FrameHeaderSize + len("alpha") // offset of frame 2
	third := second + FrameHeaderSize
	mutate := func(off int, b byte) []byte {
		raw := append([]byte(nil), clean...)
		raw[off] ^= b
		return raw
	}
	oversized := append(append([]byte(nil), clean[:second]...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	other := Format{Magic: testFormat.Magic, Version: 4, Name: "test"}
	cases := []struct {
		name    string
		raw     []byte
		good    int
		yielded int
		errHas  string // "" → clean
	}{
		{"clean", clean, len(clean), 3, ""},
		{"header only", clean[:HeaderSize], HeaderSize, 0, ""},
		{"empty", nil, 0, 0, "truncated (0 bytes)"},
		{"short header", clean[:5], 0, 0, "truncated (5 bytes)"},
		{"wrong magic", mutate(0, 1), 0, 0, "not a test file"},
		{"wrong version", other.AppendHeader(nil), 0, 0, "unsupported test version 4 (want 3)"},
		{"torn frame header", clean[:second+3], second, 1, "offset 21: torn frame header"},
		{"torn payload", clean[:len(clean)-1], third, 2, "offset 29: torn payload"},
		{"flipped payload bit", mutate(HeaderSize+FrameHeaderSize+1, 0x40), HeaderSize, 0, "offset 8: checksum mismatch"},
		{"flipped CRC bit", mutate(second+5, 1), second, 1, "offset 21: checksum mismatch"},
		{"oversized length", oversized, second, 1, "exceeds the 1024-byte limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, good, err := scanAll(c.raw)
			if good != c.good || len(got) != c.yielded {
				t.Errorf("good = %d with %d payloads, want %d with %d", good, len(got), c.good, c.yielded)
			}
			if (err == nil) != (good > 0 && good == len(c.raw)) {
				t.Errorf("err = %v but good = %d of %d bytes", err, good, len(c.raw))
			}
			if c.errHas == "" && err != nil || c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)) {
				t.Errorf("err = %v, want one containing %q", err, c.errHas)
			}
		})
	}
	// A payload yield refuses ends the prefix before it, with yield's error.
	refuse := errors.New("not a record")
	good, err := testFormat.Scan(clean, func(p []byte) error {
		if len(p) == 0 {
			return refuse
		}
		return nil
	})
	if good != second || !errors.Is(err, refuse) {
		t.Errorf("refused frame: good = %d, err = %v; want %d and the yield error", good, err, second)
	}
}

func TestReadStream(t *testing.T) {
	r := bytes.NewReader(image("one", "")[HeaderSize:])
	for _, want := range []string{"one", ""} {
		if p, err := testFormat.Read(r); err != nil || string(p) != want {
			t.Fatalf("Read = %q, %v; want %q", p, err, want)
		}
	}
	if _, err := testFormat.Read(r); err != io.EOF {
		t.Errorf("Read at end = %v, want io.EOF", err)
	}
	corrupt := image("payload")[HeaderSize:]
	corrupt[4] ^= 1
	if _, err := testFormat.Read(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt frame: %v, want a checksum error", err)
	}
	// An oversized prefix is refused from its 8 header bytes alone.
	huge := binary.LittleEndian.AppendUint32(nil, testFormat.MaxPayload+1)
	if _, err := testFormat.Read(bytes.NewReader(append(huge, 0, 0, 0, 0))); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized frame: %v, want a limit error", err)
	}
	if _, err := testFormat.Read(bytes.NewReader(image("torn")[HeaderSize : HeaderSize+10])); err != io.ErrUnexpectedEOF {
		t.Errorf("torn frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCursor(t *testing.T) {
	le := binary.LittleEndian
	b := []byte{7}
	b = le.AppendUint16(b, 0x1234)
	b = le.AppendUint32(b, 0xdeadbeef)
	b = le.AppendUint64(b, 1<<40|5)
	b = append(le.AppendUint32(b, 2), "hi"...)
	b = le.AppendUint32(b, 3) // count of 3 one-byte elements
	b = append(b, 1, 2, 3)
	c := Cursor{Buf: b}
	if c.U8() != 7 || c.U16() != 0x1234 || c.U32() != 0xdeadbeef || c.U64() != 1<<40|5 || c.Str() != "hi" {
		t.Fatalf("fixed-width reads wrong (err %v)", c.Err)
	}
	if n := c.Count(1); n != 3 || string(c.Bytes(n)) != "\x01\x02\x03" {
		t.Fatalf("count/bytes wrong (err %v)", c.Err)
	}
	if err := c.Done(); err != nil {
		t.Fatalf("Done on a fully read payload: %v", err)
	}

	// Reading past the end latches the first error and zero-values the rest.
	c = Cursor{Buf: []byte{1, 2, 3}}
	if c.U16() != 0x0201 || c.U32() != 0 || c.U8() != 0 || c.Str() != "" || c.Count(1) != 0 {
		t.Error("reads after a short read are not zero")
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "offset 2: need 4 bytes, 1 remain") {
		t.Errorf("latched error = %v, want the first failure with its offset", c.Err)
	}
	if c.Done() != c.Err {
		t.Error("Done does not report the latched error")
	}

	// Trailing bytes are Done's to report.
	c = Cursor{Buf: []byte{1, 2}}
	c.U8()
	if err := c.Done(); err == nil || !strings.Contains(err.Error(), "offset 1: 1 trailing bytes") {
		t.Errorf("Done = %v, want a trailing-bytes error", err)
	}

	// A count is believed only if its elements fit in what remains.
	for _, tc := range []struct {
		count, elem, remain int
		ok                  bool
	}{
		{0, 8, 0, true}, {2, 8, 16, true}, {3, 8, 16, false}, {2, 8, 15, false},
		{1 << 30, 1, 24, false}, {0xffffffff, 16, 4096, false},
	} {
		c := Cursor{Buf: append(le.AppendUint32(nil, uint32(tc.count)), make([]byte, tc.remain)...)}
		n := c.Count(tc.elem)
		if ok := c.Err == nil; ok != tc.ok || ok && n != tc.count || !ok && n != 0 {
			t.Errorf("Count(%d) of %d with %d bytes left = %d, err %v; want ok=%v", tc.elem, tc.count, tc.remain, n, c.Err, tc.ok)
		}
	}
	c = Cursor{Buf: append(le.AppendUint16(nil, 3), make([]byte, 23)...)}
	if n := c.Count16(8); n != 0 || c.Err == nil {
		t.Errorf("Count16(8) of 3 with 23 bytes left = %d, err %v; want a latched error", n, c.Err)
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzScan: Scan never panics, allocates nothing proportional to a length
// prefix, stops on a frame boundary, and what it yields re-frames to exactly
// the clean prefix.
func FuzzScan(f *testing.F) {
	f.Add(image())
	f.Add(image("alpha", "", "gamma"))
	f.Add(image("torn")[:HeaderSize+9])
	f.Add(append(image("x"), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("not a container"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		reframed := testFormat.AppendHeader(nil)
		var good int
		var err error
		alloc := allocatedBy(func() {
			good, err = testFormat.Scan(raw, func(p []byte) error {
				if len(p) > int(testFormat.MaxPayload) {
					t.Fatalf("yielded a %d-byte payload past MaxPayload", len(p))
				}
				reframed = Append(reframed, p)
				return nil
			})
		})
		if limit := uint64(4*len(raw) + 64<<10); alloc > limit {
			t.Fatalf("Scan of %d bytes allocated %d", len(raw), alloc)
		}
		if (err == nil) != (good > 0 && good == len(raw)) {
			t.Fatalf("err = %v but good = %d of %d", err, good, len(raw))
		}
		if good == 0 {
			if testFormat.CheckHeader(raw) == nil {
				t.Fatal("good = 0 under a valid header")
			}
			return
		}
		if !bytes.Equal(reframed, raw[:good]) {
			t.Fatalf("payloads re-frame to %d bytes that differ from the %d-byte clean prefix", len(reframed), good)
		}
	})
}

// FuzzCursor drives a cursor with an op stream: no read panics, nothing is
// returned past the end, a believed count fits, and an error, once latched,
// stays and zero-values every read after it.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("payload bytes for the cursor to walk over"))
	f.Add([]byte{5, 5, 5}, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{7, 8}, []byte{2, 0, 0, 0, 'h', 'i', 9})
	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		c := Cursor{Buf: payload}
		consumed := 0
		alloc := allocatedBy(func() {
			for _, op := range ops {
				before, failed := len(c.Buf), c.Err != nil
				var zero bool
				switch op % 9 {
				case 0:
					zero = c.U8() == 0
				case 1:
					zero = c.U16() == 0
				case 2:
					zero = c.U32() == 0
				case 3:
					zero = c.U64() == 0
				case 4:
					zero = len(c.Bytes(int(op)/9)) == 0
				case 5:
					elem := int(op)/9 + 1
					n := c.Count(elem)
					if n*elem > len(c.Buf) {
						t.Fatalf("Count(%d) = %d with %d bytes left", elem, n, len(c.Buf))
					}
					zero = n == 0
				case 6:
					n := c.Count16(8)
					if n*8 > len(c.Buf) {
						t.Fatalf("Count16(8) = %d with %d bytes left", n, len(c.Buf))
					}
					zero = n == 0
				case 7:
					zero = c.Str() == ""
				case 8:
					zero = true
					if err := c.Done(); err == nil && len(c.Buf) != 0 {
						t.Fatal("Done accepted trailing bytes")
					}
				}
				if failed && (!zero || len(c.Buf) != before || c.Err == nil) {
					t.Fatalf("op %d after a latched error: zero=%v, consumed %d", op%9, zero, before-len(c.Buf))
				}
				consumed += before - len(c.Buf)
			}
		})
		if consumed > len(payload) || consumed+len(c.Buf) != len(payload) {
			t.Fatalf("consumed %d + %d left of a %d-byte payload", consumed, len(c.Buf), len(payload))
		}
		if limit := uint64(2*len(payload) + 256*len(ops) + 64<<10); alloc > limit {
			t.Fatalf("%d ops over %d bytes allocated %d", len(ops), len(payload), alloc)
		}
	})
}
