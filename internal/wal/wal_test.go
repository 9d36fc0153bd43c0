package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/gibbs/testutil"
	"repro/internal/obs"
)

func testRecords() []Record {
	return []Record{
		{Relation: "CountyEvidence", Rows: [][]string{{"3", "POINT (-9.45 7.05)", "true"}}},
		{Relation: "WellEvidence", Rows: [][]string{{"7", "POINT (10 20)", "false"}, {"9", "POINT (1 2)", "true"}}},
		{Relation: "WellEvidence", Rows: [][]string{{"11", "POINT (5 5)", "true"}}},
	}
}

func mustOpen(t *testing.T, path string, opts Options) (*Log, ReplayStats) {
	t.Helper()
	l, stats, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, stats
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	recs := testRecords()

	l, stats := mustOpen(t, path, Options{})
	if stats.LogRecords != 0 || stats.Truncated {
		t.Fatalf("fresh log stats = %+v", stats)
	}
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, stats := mustOpen(t, path, Options{})
	defer l2.Close()
	if stats.LogRecords != len(recs) || stats.Truncated {
		t.Fatalf("replay stats = %+v", stats)
	}
	if got := l2.Records(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records = %+v, want %+v", got, recs)
	}
}

// TestTornTailTruncatedAtEveryOffset is the frame-boundary chaos sweep at
// the wal level: for every possible truncation point of the file — each
// record boundary and every byte inside a frame — replay must recover
// exactly the records whose frames survived complete, and truncate the file
// back to that clean prefix.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ev.wal")
	recs := testRecords()
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	offs, err := FrameOffsets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != len(recs)+1 {
		t.Fatalf("FrameOffsets = %v, want %d boundaries", offs, len(recs)+1)
	}
	size := offs[len(offs)-1]
	for cut := int64(frame.HeaderSize); cut < size; cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := testutil.CopyFile(torn, path); err != nil {
			t.Fatal(err)
		}
		if err := testutil.TearFileAt(torn, cut); err != nil {
			t.Fatal(err)
		}
		// Complete frames strictly before the cut survive.
		want := 0
		for _, off := range offs[1:] {
			if off <= cut {
				want++
			}
		}
		l, stats := mustOpen(t, torn, Options{})
		if stats.LogRecords != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, stats.LogRecords, want)
		}
		if wantTrunc := cut != offs[want]; stats.Truncated != wantTrunc {
			t.Fatalf("cut at %d: Truncated = %v, want %v", cut, stats.Truncated, wantTrunc)
		}
		if got := l.Records(); len(got) != want || (want > 0 && !reflect.DeepEqual(got, recs[:want])) {
			t.Fatalf("cut at %d: records = %+v", cut, got)
		}
		// The file itself was truncated back to the boundary, so a later
		// append cannot land after garbage.
		if fi, err := os.Stat(torn); err != nil || fi.Size() != offs[want] {
			t.Fatalf("cut at %d: file size %d, want %d (err %v)", cut, fi.Size(), offs[want], err)
		}
		// And the log accepts appends again after recovery.
		if err := l.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptMiddleKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	recs := testRecords()
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	offs, err := FrameOffsets(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the second record's frame: the CRC rejects it and
	// everything from there is treated as a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offs[1]+frame.FrameHeaderSize+2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, stats := mustOpen(t, path, Options{})
	defer l2.Close()
	if !stats.Truncated || stats.LogRecords != 1 {
		t.Fatalf("stats after corruption = %+v, want 1 record + truncated", stats)
	}
	if !reflect.DeepEqual(l2.Records(), recs[:1]) {
		t.Fatalf("records = %+v", l2.Records())
	}
}

// TestSyncPerAppend: every append is fsynced before it returns, and an
// append does not grow the replayed history Records holds.
func TestSyncPerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	recs := testRecords()
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, recs[:1])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l, _ = mustOpen(t, path, Options{Metrics: reg})
	for i, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if v := snap["sya_wal_fsyncs_total"]; v != float64(i+1) {
			t.Errorf("fsyncs after %d appends: %v", i+1, v)
		}
		if v := snap["sya_wal_records"]; v != float64(i+2) {
			t.Errorf("sya_wal_records after %d appends over 1 replayed: %v", i+1, v)
		}
		if got := l.Records(); !reflect.DeepEqual(got, recs[:1]) {
			t.Fatalf("Records after %d appends = %+v, want only the replayed record", i+1, got)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesSnapshotFiles: a snapshot beside the log holds records a
// compacting build moved out of it, so Open fails naming the file and leaves
// the log as it was rather than replay a history with a hole in it.
func TestOpenRefusesSnapshotFiles(t *testing.T) {
	for _, suffix := range []string{".snap", ".snap.prev"} {
		t.Run(suffix, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ev.wal")
			l, _ := mustOpen(t, path, Options{})
			appendAll(t, l, testRecords())
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snap := path + suffix
			if err := os.WriteFile(snap, before, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = Open(path, Options{})
			if err == nil || !strings.Contains(err.Error(), snap) {
				t.Fatalf("Open beside %s: err = %v, want an error naming it", snap, err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, before) {
				t.Fatalf("Open changed the log it refused (err %v)", rerr)
			}
		})
	}
}

func TestWrongMagicIsErrorNotTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	if err := os.WriteFile(path, []byte("not a wal file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open succeeded on a non-WAL file; truncating it would destroy data")
	}
}
