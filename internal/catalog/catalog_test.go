package catalog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// mapBinding adapts a map to the wcoj.Binding interface for tests.
type mapBinding map[string]relational.Value

func (m mapBinding) Get(attr string) (relational.Value, bool) {
	v, ok := m[attr]
	return v, ok
}

func testTable(t *testing.T, dict *relational.Dict, name string, n int) *relational.Table {
	t.Helper()
	tab := relational.NewTable(name, relational.MustSchema("a", "b"))
	for i := 0; i < n; i++ {
		tab.MustAppend(dict.InternInt(int64(i)), dict.InternInt(int64(i%7)))
	}
	return tab
}

func testDoc(t *testing.T, dict *relational.Dict) *xmldb.Document {
	t.Helper()
	b := xmldb.NewBuilder(dict)
	b.Open("root")
	for i := 0; i < 20; i++ {
		b.Open("item")
		b.Leaf("a", string(rune('a'+i%5)))
		b.Leaf("b", string(rune('a'+i%3)))
		b.Close()
	}
	b.Close()
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSourcesShared: repeated source lookups return the identical shared
// structure and count one miss then hits.
func TestSourcesShared(t *testing.T) {
	dict := relational.NewDict()
	c := New(0)
	tab := testTable(t, dict, "R", 10)
	doc := testDoc(t, dict)

	a1, a2 := c.TableAtom(tab), c.TableAtom(tab)
	if a1 != a2 {
		t.Fatal("TableAtom not shared")
	}
	if ix1, ix2 := c.Indexes(doc), c.Indexes(doc); ix1 != ix2 {
		t.Fatal("Indexes not shared")
	}
	if s1, s2 := c.StructIndex(doc), c.StructIndex(doc); s1 != s2 {
		t.Fatal("StructIndex not shared")
	}
	if c.Indexes(doc) != c.StructIndex(doc) {
		t.Fatal("Indexes and StructIndex return different structures")
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 6 {
		t.Fatalf("stats = %+v, want 2 misses (creations) and 6 hits (reuses)", s)
	}
}

// TestEntryAccounting: building an index registers resident bytes; reuse
// counts hits without new misses; evicting releases the bytes.
func TestEntryAccounting(t *testing.T) {
	dict := relational.NewDict()
	c := New(0)
	a := c.TableAtom(testTable(t, dict, "R", 50))

	open := func() {
		it, err := a.Open("a", mapBinding{})
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
	open()
	s1 := c.Stats()
	if s1.Entries != 1 || s1.ResidentBytes <= 0 {
		t.Fatalf("after first open: %+v", s1)
	}
	open()
	s2 := c.Stats()
	if s2.Misses != s1.Misses {
		t.Fatalf("reuse built again: %+v -> %+v", s1, s2)
	}
	if s2.Hits <= s1.Hits {
		t.Fatalf("reuse did not count a hit: %+v -> %+v", s1, s2)
	}
	c.SetBudget(1)
	c.SetBudget(0)
	s3 := c.Stats()
	if s3.Entries != 0 || s3.ResidentBytes != 0 {
		t.Fatalf("eviction left accounting: %+v", s3)
	}
	// Rebuild after the eviction works and re-registers.
	open()
	if s4 := c.Stats(); s4.Entries != 1 || s4.Misses != s3.Misses+1 {
		t.Fatalf("rebuild after eviction: %+v", s4)
	}
}

// TestBudgetEviction: a tiny budget evicts least-recently-touched entries;
// evicted shapes rebuild lazily and still answer correctly.
func TestBudgetEviction(t *testing.T) {
	dict := relational.NewDict()
	c := New(0)
	a := c.TableAtom(testTable(t, dict, "R", 200))

	countA := func() int {
		it, err := a.Open("a", mapBinding{})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		n := 0
		for ; !it.AtEnd(); it.Next() {
			n++
		}
		return n
	}
	want := countA()
	// Build a second shape, then squeeze the budget below one entry.
	if _, err := a.Open("b", mapBinding{}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("expected 2 entries, got %+v", s)
	}
	c.SetBudget(1)
	s := c.Stats()
	if s.Evictions == 0 || s.Entries != 0 {
		t.Fatalf("tiny budget did not evict: %+v", s)
	}
	if got := countA(); got != want {
		t.Fatalf("post-eviction rebuild answered %d values, want %d", got, want)
	}
	if s2 := c.Stats(); s2.Misses != s.Misses+1 {
		t.Fatalf("post-eviction open should rebuild exactly once: %+v -> %+v", s, s2)
	}
}

// TestStructEntriesEvict: structix tag runs and projections register and
// evict through the same budget.
func TestStructEntriesEvict(t *testing.T) {
	dict := relational.NewDict()
	c := New(0)
	doc := testDoc(t, dict)
	six := c.StructIndex(doc)

	old, err := six.Tag("a", cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := six.ADProjSizes("item", "a"); ok {
		t.Fatal("projection reported before build")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("tag run not registered: %+v", s)
	}
	// An unbound atom's Open binds both tags' runs and the edge's
	// projections for that call, and must not reuse them after an eviction.
	ad := structix.NewRegionADAtom(six, "item", "a")
	itemVal := old.Values()[0]
	open := func() {
		it, err := ad.Open("item", mapBinding{"a": itemVal})
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
	open()
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("open did not bind both tags' runs and the projections: %+v", s)
	}
	c.SetBudget(1)
	if s := c.Stats(); s.Entries != 0 || s.Evictions == 0 {
		t.Fatalf("structures not evicted: %+v", s)
	}
	c.SetBudget(0)
	before := c.Stats()
	open()
	if s := c.Stats(); s.Entries != 3 || s.Misses != before.Misses+3 {
		t.Fatalf("atom did not re-resolve its evicted structures: %+v -> %+v", before, s)
	}
	// Rebuild transparently.
	if tr, err := six.Tag("a", cachehook.BuildControl{}); err != nil || tr == old || tr.Len() != old.Len() {
		t.Fatal("tag runs not rebuilt after eviction")
	}
}

// TestConcurrentBuildEvict hammers builds, touches and forced evictions
// from many goroutines (run under -race in CI).
func TestConcurrentBuildEvict(t *testing.T) {
	dict := relational.NewDict()
	c := New(0)
	tab := testTable(t, dict, "R", 300)
	doc := testDoc(t, dict)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := c.TableAtom(tab)
			six := c.StructIndex(doc)
			ix := c.Indexes(doc)
			for i := 0; i < 50; i++ {
				if it, err := a.Open("a", mapBinding{}); err == nil {
					it.Close()
				}
				six.Tag("item", cachehook.BuildControl{})
				ix.Edge("item", "a", cachehook.BuildControl{})
				switch i % 10 {
				case 3:
					c.SetBudget(1)
				case 7:
					c.SetBudget(0)
				}
			}
		}()
	}
	wg.Wait()
	c.SetBudget(0)
	s := c.Stats()
	if s.ResidentBytes < 0 {
		t.Fatalf("negative resident bytes: %+v", s)
	}
	if !strings.Contains(s.String(), "catalog:") {
		t.Fatalf("stats string: %q", s.String())
	}
}

// TestHotShapesSurviveColdQueries: a join whose table indexes every run
// resolves once (and holds) keeps them recent, so under a budget that fits
// the hot shapes plus one cold query's, a stream of cold queries evicts
// only its own predecessors — however rarely a run resolves each hot
// shape.
func TestHotShapesSurviveColdQueries(t *testing.T) {
	c := New(0)
	grid := func(name, x, y string, n int) *relational.Table {
		tab := relational.NewTable(name, relational.MustSchema(x, y))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				tab.MustAppend(relational.Value(i), relational.Value((i+j)%n))
			}
		}
		return tab
	}
	hot := []wcoj.Atom{c.TableAtom(grid("R", "a", "b", 12)), c.TableAtom(grid("S", "b", "c", 12))}
	join := func(atoms []wcoj.Atom, order ...string) {
		t.Helper()
		if _, err := wcoj.GenericJoinStream(atoms, order, func(relational.Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	cold := func(i int) {
		join([]wcoj.Atom{c.TableAtom(grid(fmt.Sprintf("C%d", i), "x", "y", 12))}, "x", "y")
	}
	join(hot, "a", "b", "c")
	hotBytes := c.Stats().ResidentBytes
	cold(0)
	c.SetBudget(c.Stats().ResidentBytes) // the hot shapes plus one cold query's
	hotShapes := func() int {
		n := 0
		for _, a := range hot {
			n += a.(*wcoj.TableAtom).IndexInfo().Indexes
		}
		return n
	}
	want := hotShapes()
	for i := 1; i <= 12; i++ {
		for range 3 {
			join(hot, "a", "b", "c")
		}
		cold(i)
		if got := hotShapes(); got != want {
			t.Fatalf("cold query %d evicted a hot shape: %d of %d resident (%+v)", i, got, want, c.Stats())
		}
		if s := c.Stats(); s.ResidentBytes > s.Budget || s.ResidentBytes <= hotBytes {
			t.Fatalf("cold query %d: resident %d, hot %d, budget %d", i, s.ResidentBytes, hotBytes, s.Budget)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("the cold queries never outgrew the budget: %+v", s)
	}
}
