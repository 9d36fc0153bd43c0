package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		items[i] = Item{
			Rect: geom.NewRect(p, geom.Pt(p.X+rng.Float64()*5, p.Y+rng.Float64()*5)),
			Data: int64(i),
		}
	}
	return items
}

func linearSearch(items []Item, q geom.Rect) map[int64]bool {
	out := map[int64]bool{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.Data] = true
		}
	}
	return out
}

func treeSearch(t *Tree, q geom.Rect) map[int64]bool {
	out := map[int64]bool{}
	t.Search(q, func(it Item) bool {
		out[it.Data] = true
		return true
	})
	return out
}

func sameSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk(nil)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.SearchAll(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))); len(got) != 0 {
		t.Errorf("search on empty tree returned %d items", len(got))
	}
	if got := tr.NearestK(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("NearestK on empty tree = %v", got)
	}
}

func TestBulkMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 2000)
	reference := append([]Item(nil), items...)
	tr := Bulk(items)
	if tr.Len() != len(reference) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for q := 0; q < 50; q++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		query := geom.NewRect(p, geom.Pt(p.X+rng.Float64()*80, p.Y+rng.Float64()*80))
		want := linearSearch(reference, query)
		got := treeSearch(tr, query)
		if !sameSet(got, want) {
			t.Fatalf("query %d: got %d items, want %d", q, len(got), len(want))
		}
	}
}

func TestBulkSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100} {
		items := randomItems(rng, n)
		reference := append([]Item(nil), items...)
		tr := Bulk(items)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		all := treeSearch(tr, geom.NewRect(geom.Pt(-10, -10), geom.Pt(2000, 2000)))
		if len(all) != n {
			t.Fatalf("n=%d: full search got %d", n, len(all))
		}
		_ = reference
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Bulk(randomItems(rng, 300))
	count := 0
	tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d items, want 5", count)
	}
}

func TestNearestK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 400)
	reference := append([]Item(nil), items...)
	tr := Bulk(items)
	for q := 0; q < 20; q++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		got := tr.NearestK(p, k)
		if len(got) != k {
			t.Fatalf("NearestK returned %d, want %d", len(got), k)
		}
		// Brute-force expected distances.
		dists := make([]float64, len(reference))
		for i, it := range reference {
			dists[i] = geom.DistancePointRect(p, it.Rect)
		}
		sort.Float64s(dists)
		for i, it := range got {
			d := geom.DistancePointRect(p, it.Rect)
			if d != dists[i] {
				t.Fatalf("nearest %d: dist %v, want %v", i, d, dists[i])
			}
		}
	}
}

func TestDuplicateRects(t *testing.T) {
	r := geom.NewRect(geom.Pt(1, 1), geom.Pt(2, 2))
	items := make([]Item, 50)
	for i := range items {
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	tr := Bulk(items)
	got := tr.SearchAll(r)
	if len(got) != 50 {
		t.Errorf("duplicate search = %d, want 50", len(got))
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]Item(nil), items...)
		Bulk(buf)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tr := Bulk(randomItems(rng, 10000))
	q := geom.NewRect(geom.Pt(100, 100), geom.Pt(200, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Search(q, func(Item) bool { n++; return true })
	}
}
