package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
)

// sensorSchema is a small spatially-indexed relation for concurrency tests.
func sensorSchema() Schema {
	return Schema{Name: "Sensor", Cols: []Column{
		{Name: "id", Kind: KindInt},
		{Name: "loc", Kind: KindGeom, GeomType: geom.TypePoint},
		{Name: "label", Kind: KindString},
	}}
}

func sensorRow(i int) Row {
	return Row{Int(int64(i)), Geom(geom.Point{X: float64(i % 32), Y: float64(i / 32)}), Str(fmt.Sprintf("w%d", i))}
}

// TestConcurrentReadsDuringUpsert drives every read path (Len, Row, Rows,
// Scan) while a writer keeps appending — the serving layer's evidence-upsert
// shape. Run under -race this pins down the RW-mutex guarantees on the rows
// slice. The indexed case also bulk-loads an R-tree over each Rows snapshot,
// the way a reader that queries a table spatially indexes it, and checks its
// window search against a scan filter over the same snapshot.
func TestConcurrentReadsDuringUpsert(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "unindexed"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			tbl, err := NewTable(sensorSchema())
			if err != nil {
				t.Fatal(err)
			}
			const seedRows = 64
			for i := 0; i < seedRows; i++ {
				if err := tbl.Append(sensorRow(i)); err != nil {
					t.Fatal(err)
				}
			}

			const appends = 512
			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Writer: one upsert stream growing the table.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for i := seedRows; i < seedRows+appends; i++ {
					if err := tbl.Append(sensorRow(i)); err != nil {
						t.Errorf("append %d: %v", i, err)
						return
					}
				}
			}()

			// Readers: every public read path, looping until the writer is done.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					window := geom.NewRect(geom.Point{X: 2, Y: 0}, geom.Point{X: 9, Y: 5})
					for {
						select {
						case <-stop:
							return
						default:
						}
						n := tbl.Len()
						if n > 0 {
							row := tbl.Row(n - 1)
							if len(row) != 3 {
								t.Errorf("torn row: %v", row)
								return
							}
						}
						seen := 0
						tbl.Scan(func(id int, row Row) bool {
							if row[0].IsNull() {
								t.Errorf("scan: torn row at id %d", id)
								return false
							}
							seen++
							return true
						})
						if seen < seedRows {
							t.Errorf("scan saw %d rows, want ≥ %d", seen, seedRows)
							return
						}
						rows := tbl.Rows()
						if len(rows) < seedRows || !rows[r][0].Equal(Int(int64(r))) {
							t.Errorf("rows: %d rows, row %d = %v", len(rows), r, rows[r])
							return
						}
						if indexed {
							if err := searchMatchesScan(rows, window); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()

			if got := tbl.Len(); got != seedRows+appends {
				t.Fatalf("final len = %d, want %d", got, seedRows+appends)
			}
			for id, row := range tbl.Rows() {
				if !row[0].Equal(Int(int64(id))) {
					t.Fatalf("row %d holds id %v", id, row[0])
				}
			}
			if indexed {
				all := geom.NewRect(geom.Point{X: -1, Y: -1}, geom.Point{X: 1e9, Y: 1e9})
				if err := searchMatchesScan(tbl.Rows(), all); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// searchMatchesScan bulk-loads an R-tree over rows' loc column and checks
// that its window search finds exactly the rows a scan filter keeps.
func searchMatchesScan(rows []Row, window geom.Rect) error {
	items := make([]rtree.Item, len(rows))
	var want []int64
	for id, row := range rows {
		g, err := row[1].AsGeom()
		if err != nil {
			return fmt.Errorf("row %d: %v", id, err)
		}
		items[id] = rtree.Item{Rect: g.Bounds(), Data: int64(id)}
		if window.Intersects(g.Bounds()) {
			want = append(want, int64(id))
		}
	}
	var got []int64
	for _, it := range rtree.Bulk(items).SearchAll(window) {
		got = append(got, it.Data)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !slices.Equal(got, want) {
		return fmt.Errorf("R-tree over %d rows found %v, scan found %v", len(rows), got, want)
	}
	return nil
}

func TestParseCell(t *testing.T) {
	cases := []struct {
		col  Column
		cell string
		want Value
		err  bool
	}{
		{Column{Name: "a", Kind: KindInt}, "42", Int(42), false},
		{Column{Name: "a", Kind: KindInt}, "  7 ", Int(7), false},
		{Column{Name: "a", Kind: KindInt}, "x", Null, true},
		{Column{Name: "a", Kind: KindFloat}, "2.5", Float(2.5), false},
		{Column{Name: "a", Kind: KindBool}, "true", Bool(true), false},
		{Column{Name: "a", Kind: KindBool}, "0", Bool(false), false},
		{Column{Name: "a", Kind: KindBool}, "maybe", Null, true},
		{Column{Name: "a", Kind: KindString}, "hello", Str("hello"), false},
		{Column{Name: "a", Kind: KindString}, "", Null, false},
		{Column{Name: "a", Kind: KindInt}, "NULL", Null, false},
		{Column{Name: "a", Kind: KindGeom, GeomType: geom.TypePoint}, "POINT (1 2)", Geom(geom.Point{X: 1, Y: 2}), false},
		{Column{Name: "a", Kind: KindGeom}, "POINT (bad)", Null, true},
	}
	for _, c := range cases {
		got, err := ParseCell(c.col, c.cell)
		if c.err {
			if err == nil {
				t.Errorf("ParseCell(%v, %q): want error, got %v", c.col.Kind, c.cell, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCell(%v, %q): %v", c.col.Kind, c.cell, err)
			continue
		}
		if !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("ParseCell(%v, %q) = %v, want %v", c.col.Kind, c.cell, got, c.want)
		}
	}
}
