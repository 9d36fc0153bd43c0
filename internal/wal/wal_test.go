package wal

import (
	"os"
	"path/filepath"
	"reflect"
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
	if stats.SnapshotRecords != 0 || stats.LogRecords != 0 || stats.Truncated {
		t.Fatalf("fresh log stats = %+v", stats)
	}
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, stats := mustOpen(t, path, Options{})
	defer l2.Close()
	if stats.LogRecords != len(recs) || stats.Truncated || stats.SnapshotFallback {
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

func TestSnapshotCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	recs := testRecords()
	reg := obs.NewRegistry()
	// SnapshotEvery 2: the second append compacts records 1–2 into the
	// snapshot; the third lands in the fresh log.
	l, _ := mustOpen(t, path, Options{SnapshotEvery: 2, Metrics: reg})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapPath(path)); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	logOffs, err := FrameOffsets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(logOffs) != 2 {
		t.Fatalf("log holds %d records after compaction, want 1", len(logOffs)-1)
	}
	l2, stats := mustOpen(t, path, Options{})
	defer l2.Close()
	if stats.SnapshotRecords != 2 || stats.LogRecords != 1 {
		t.Fatalf("replay stats = %+v, want 2 snapshot + 1 log records", stats)
	}
	if !reflect.DeepEqual(l2.Records(), recs) {
		t.Fatalf("records = %+v, want %+v", l2.Records(), recs)
	}
	if v := reg.Snapshot()["sya_wal_snapshots_total"]; v != 1 {
		t.Errorf("sya_wal_snapshots_total = %v, want 1", v)
	}
}

// TestSnapshotFallbackToPrev corrupts the primary snapshot: replay must use
// the rotated previous generation plus the (uncompacted) log tail.
func TestSnapshotFallbackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	recs := testRecords()
	l, _ := mustOpen(t, path, Options{SnapshotEvery: 1})
	// Every append compacts, so after three appends the snapshot holds all
	// three (merged) and .prev holds the first two.
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := testutil.CorruptFile(SnapPath(path)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l2, stats := mustOpen(t, path, Options{Metrics: reg})
	defer l2.Close()
	if !stats.SnapshotFallback {
		t.Fatalf("stats = %+v, want snapshot fallback", stats)
	}
	// The previous snapshot holds records 1–2 (record 2 and 3 share a
	// relation, so the third-generation snapshot merged them; the second
	// generation is records 1 and 2 as appended).
	want := mergeRecords(recs[:2])
	if !reflect.DeepEqual(l2.Records(), want) {
		t.Fatalf("records = %+v, want %+v", l2.Records(), want)
	}
	if v := reg.Snapshot()["sya_wal_snapshot_fallbacks_total"]; v != 1 {
		t.Errorf("fallback counter = %v, want 1", v)
	}
}

// TestSnapshotCorruptNoFallbackFails: losing both snapshot generations must
// refuse to boot rather than silently dropping acked evidence.
func TestSnapshotCorruptNoFallbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, testRecords())
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := testutil.CorruptFile(SnapPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open succeeded with a corrupt snapshot and no previous generation")
	}
}

func TestSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.wal")
	reg := obs.NewRegistry()
	l, _ := mustOpen(t, path, Options{SyncEvery: 3, Metrics: reg})
	recs := testRecords()
	appendAll(t, l, recs) // 3 appends → exactly one fsync
	if v := reg.Snapshot()["sya_wal_fsyncs_total"]; v != 1 {
		t.Errorf("fsyncs after 3 appends at SyncEvery=3: %v, want 1", v)
	}
	if err := l.Append(recs[0]); err != nil { // 1 unsynced
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // Close flushes the remainder
		t.Fatal(err)
	}
	if v := reg.Snapshot()["sya_wal_fsyncs_total"]; v != 2 {
		t.Errorf("fsyncs after close: %v, want 2", v)
	}
	if v := reg.Snapshot()["sya_wal_appends_total"]; v != 4 {
		t.Errorf("appends: %v, want 4", v)
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

func TestMergeRecordsPreservesOrder(t *testing.T) {
	recs := []Record{
		{Relation: "A", Rows: [][]string{{"1"}}},
		{Relation: "A", Rows: [][]string{{"2"}}},
		{Relation: "B", Rows: [][]string{{"3"}}},
		{Relation: "A", Rows: [][]string{{"4"}}},
	}
	got := mergeRecords(recs)
	want := []Record{
		{Relation: "A", Rows: [][]string{{"1"}, {"2"}}},
		{Relation: "B", Rows: [][]string{{"3"}}},
		{Relation: "A", Rows: [][]string{{"4"}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeRecords = %+v, want %+v", got, want)
	}
}
