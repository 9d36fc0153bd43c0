package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gibbs/testutil"
)

// goldenRecords is the fixed append sequence behind testdata/v1.wal. It
// covers an empty cell, non-ASCII text and a record without rows.
func goldenRecords() []Record {
	return []Record{
		{Relation: "Région", Rows: [][]string{{"Guéckédou", "POLYGON ((0 0, 1 0, 1 1, 0 0))"}}},
		{Relation: "Empty"},
	}
}

// TestV1GoldenBytes pins the SYAW v1 bytes: the log this build writes for
// the fixed sequence equals the one recorded before internal/frame existed,
// and the recorded log replays to the expected records.
func TestV1GoldenBytes(t *testing.T) {
	recs := goldenRecords()
	path := filepath.Join(t.TempDir(), "v1.wal")
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "v1.wal")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wrote %d bytes that differ from the recorded %d in %s", len(got), len(want), golden)
	}

	replay := filepath.Join(t.TempDir(), "v1.wal")
	if err := testutil.CopyFile(replay, golden); err != nil {
		t.Fatal(err)
	}
	l2, stats := mustOpen(t, replay, Options{})
	defer l2.Close()
	if stats.LogRecords != len(recs) || stats.Truncated {
		t.Fatalf("golden replay stats = %+v", stats)
	}
	if !reflect.DeepEqual(l2.Records(), recs) {
		t.Fatalf("golden replayed to %+v, want %+v", l2.Records(), recs)
	}
}
