package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// refRecord is a naive reading of the record payload layout, written
// against the format description rather than the decoder: relation, row
// count, per row a cell count and its cells, every string and count a u32
// prefix, nothing left over.
func refRecord(p []byte) (rec Record, ok bool) {
	u32 := func() uint32 {
		if len(p) < 4 {
			ok = false
			return 0
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v
	}
	str := func() string {
		n := u32()
		if !ok || uint64(n) > uint64(len(p)) {
			ok = false
			return ""
		}
		s := string(p[:n])
		p = p[n:]
		return s
	}
	ok = true
	rec.Relation = str()
	for i, nrows := uint32(0), u32(); ok && i < nrows; i++ {
		row := []string{}
		for j, ncells := uint32(0), u32(); ok && j < ncells; j++ {
			row = append(row, str())
		}
		rec.Rows = append(rec.Rows, row)
	}
	return rec, ok && len(p) == 0
}

// refScan is the naive reading of a log image: ours reports whether the image
// is a SYAW v1 file at all (or too short to say, which Open starts afresh);
// recs and prefix are the records and bytes of its longest clean prefix.
func refScan(raw []byte) (recs []Record, prefix []byte, ours bool) {
	header := []byte{'W', 'A', 'Y', 'S', 1, 0, 0, 0}
	if len(raw) < len(header) {
		return nil, header, true
	}
	if !bytes.Equal(raw[:len(header)], header) {
		return nil, nil, false
	}
	off := len(header)
	for len(raw)-off >= 8 {
		n := binary.LittleEndian.Uint32(raw[off:])
		if n > 1<<28 || uint64(n) > uint64(len(raw)-off-8) {
			break
		}
		payload := raw[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[off+4:]) {
			break
		}
		rec, ok := refRecord(payload)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
	return recs, raw[:off], true
}

// FuzzReplay opens arbitrary bytes as a live log. Either Open fails and the
// file is untouched — a wrong magic or version is never "repaired" — or it
// recovers exactly the naive scanner's clean-prefix records, leaves the file
// equal to that prefix, and a second Open sees the same records with nothing
// left to truncate.
func FuzzReplay(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	flipped := append([]byte(nil), raw...)
	flipped[len(raw)/2] ^= 0x40
	f.Add(flipped)
	// The header alone, the clean one-record prefix, and a first frame whose
	// length claims more than a frame may carry.
	first := 8 + 8 + int(binary.LittleEndian.Uint32(raw[8:]))
	f.Add(raw[:8])
	f.Add(raw[:first])
	oversized := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(oversized[8:], 1<<28+1)
	f.Add(oversized)
	f.Add([]byte{})
	f.Add([]byte("WAYS"))
	f.Add([]byte("not a wal file at all"))
	f.Add([]byte{'W', 'A', 'Y', 'S', 2, 0, 0, 0})
	// A CRC-clean frame that is not a record: four rows claimed, none present.
	bogus := []byte{0, 0, 0, 0, 4, 0, 0, 0}
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(
		[]byte{'W', 'A', 'Y', 'S', 1, 0, 0, 0}, uint32(len(bogus))), crc32.ChecksumIEEE(bogus)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "ev.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs, wantFile, ours := refScan(raw)
		l, stats, err := Open(path, Options{})
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !ours {
			if err == nil {
				t.Fatal("Open accepted a file that is not a SYAW v1 log")
			}
			if !bytes.Equal(after, raw) {
				t.Fatal("Open modified a file it rejected")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := l.Records(); len(got) != len(wantRecs) || len(got) > 0 && !reflect.DeepEqual(got, wantRecs) {
			t.Fatalf("recovered %+v, reference scanner says %+v", got, wantRecs)
		}
		if !bytes.Equal(after, wantFile) {
			t.Fatalf("file is %d bytes after Open, want the %d-byte clean prefix", len(after), len(wantFile))
		}
		if wantTrunc := len(raw) >= len(wantFile) && len(wantFile) != len(raw); stats.Truncated != wantTrunc {
			t.Fatalf("Truncated = %v on a %d-byte file with a %d-byte clean prefix", stats.Truncated, len(raw), len(wantFile))
		}
		l2, stats2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if stats2.Truncated || stats2.LogRecords != len(wantRecs) || len(wantRecs) > 0 && !reflect.DeepEqual(l2.Records(), wantRecs) {
			t.Fatalf("second Open: stats %+v, records %+v", stats2, l2.Records())
		}
	})
}

// TestDecodeRecordBoundedByInput: a CRC-valid record may claim any row and
// cell counts; what decoding it allocates is bounded by its size, not by its
// claims. This 12-byte record claims one row of 65,535 cells (inside the old
// 1<<16 plausibility cap, which let it reserve a 1 MiB []string).
func TestDecodeRecordBoundedByInput(t *testing.T) {
	le := binary.LittleEndian
	p := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 0), 1), 0xffff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRecord(p)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("record with absent cells decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4096 {
		t.Errorf("decoding a %d-byte hostile record allocated %d bytes", len(p), alloc)
	}
}
