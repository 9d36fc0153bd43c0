package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gibbs/testutil"
)

// goldenRecords is the fixed append sequence behind testdata/v1.wal and
// v1.wal.snap: the first three records are appended and compacted (the two
// WellEvidence batches merge), the last two land in the fresh log. It covers
// an empty cell, an empty row, a record without rows and non-ASCII text.
func goldenRecords() (compacted, tail []Record) {
	return []Record{
			{Relation: "CountyEvidence", Rows: [][]string{{"3", "POINT (-9.45 7.05)", "true"}}},
			{Relation: "WellEvidence", Rows: [][]string{{"7", "POINT (10 20)", "false"}, {"9", "", "true"}}},
			{Relation: "WellEvidence", Rows: [][]string{{"11", "POINT (5 5)", "true"}, {}}},
		}, []Record{
			{Relation: "Région", Rows: [][]string{{"Guéckédou", "POLYGON ((0 0, 1 0, 1 1, 0 0))"}}},
			{Relation: "Empty"},
		}
}

// TestV1GoldenBytes pins the SYAW v1 bytes: the files this build writes for
// the fixed sequence equal the ones recorded before internal/frame existed,
// and the recorded files replay to the expected records.
func TestV1GoldenBytes(t *testing.T) {
	compacted, tail := goldenRecords()
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.wal")
	l, _ := mustOpen(t, path, Options{})
	appendAll(t, l, compacted)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, tail)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v1.wal", "v1.wal.snap"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", name)
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the recorded %d", name, len(got), len(want))
		}
	}

	replay := filepath.Join(t.TempDir(), "v1.wal")
	for _, suffix := range []string{"", ".snap"} {
		if err := testutil.CopyFile(replay+suffix, filepath.Join("testdata", "v1.wal"+suffix)); err != nil {
			t.Fatal(err)
		}
	}
	l2, stats := mustOpen(t, replay, Options{})
	defer l2.Close()
	if stats.SnapshotRecords != 2 || stats.LogRecords != 2 || stats.Truncated || stats.SnapshotFallback {
		t.Fatalf("golden replay stats = %+v", stats)
	}
	if want := append(mergeRecords(compacted), tail...); !reflect.DeepEqual(l2.Records(), want) {
		t.Fatalf("golden replayed to %+v, want %+v", l2.Records(), want)
	}
}
