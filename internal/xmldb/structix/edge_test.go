package structix

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

// figure1XML is the paper's Figure 1 document (invoices with order lines).
const figure1XML = `
<invoices>
  <orderLine>
    <orderID>10963</orderID>
    <ISBN>978-3-16-1</ISBN>
    <price>30</price>
    <discount>0.1</discount>
  </orderLine>
  <orderLine>
    <orderID>20134</orderID>
    <ISBN>634-3-12-2</ISBN>
    <price>20</price>
    <discount>0.3</discount>
  </orderLine>
</invoices>`

func parseFig1(t *testing.T) (*xmldb.Document, *relational.Dict) {
	t.Helper()
	dict := relational.NewDict()
	doc, err := xmldb.ParseString(figure1XML, dict)
	if err != nil {
		t.Fatal(err)
	}
	return doc, dict
}

func mustEdge(t *testing.T, ix *Index, parentTag, childTag string) *wcoj.TableAtom {
	t.Helper()
	e, err := ix.Edge(parentTag, childTag, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEdgeIndexFigure1(t *testing.T) {
	doc, dict := parseFig1(t)
	ix := New(doc)
	e := mustEdge(t, ix, "orderLine", "orderID")
	if e.Name() != "PC[orderLine/orderID]" || !slices.Equal(e.Attrs(), []string{"orderLine", "orderID"}) {
		t.Fatalf("edge table %s%v", e.Name(), e.Attrs())
	}
	if n := e.Table().Len(); n != 2 {
		t.Fatalf("pair rows = %d, want 2", n)
	}
	if ps, cs := drain(t, mustOpen(t, e, "orderLine", emptyBinding{})), drain(t, mustOpen(t, e, "orderID", emptyBinding{})); len(ps) != 2 || len(cs) != 2 {
		t.Fatalf("parent/child distinct = %d/%d", len(ps), len(cs))
	}
	olv := doc.Value(doc.NodesByTag("orderLine")[0])
	v, _ := dict.Lookup("10963")
	if cs := drain(t, mustOpen(t, e, "orderID", oneBinding{"orderLine", olv})); !valuesEqual(cs, []relational.Value{v}) {
		t.Errorf("children of the first orderLine = %v, want [10963]", cs)
	}
	if ps := drain(t, mustOpen(t, e, "orderLine", oneBinding{"orderID", v})); !valuesEqual(ps, []relational.Value{olv}) {
		t.Errorf("parents of 10963 = %v, want the first orderLine", ps)
	}
	// Mismatched tag pair: an empty table, not a crash.
	e2 := mustEdge(t, ix, "price", "orderID")
	if e2.Table().Len() != 0 || len(drain(t, mustOpen(t, e2, "price", emptyBinding{}))) != 0 {
		t.Error("price->orderID edge should be empty")
	}
	if again := mustEdge(t, ix, "orderLine", "orderID"); again != e {
		t.Error("edge table not cached")
	}
	if info := ix.Info(); info.Edges != 2 || info.ApproxBytes <= 0 {
		t.Errorf("Info = %+v, want 2 edges with their bytes", info)
	}
}

// checkEdgeTable checks one edge of doc against a direct scan of parent
// pointers: the pair table holds exactly the scanned (parent value, child
// value) pairs as a multiset — so at most one row per child node, the size
// fact the paper's transformation relies on — and Open enumerates the
// scan's distinct values in both directions, bound and unbound.
func checkEdgeTable(t *testing.T, doc *xmldb.Document, ix *Index, pt, ct string) {
	t.Helper()
	type pair struct{ p, c relational.Value }
	var want []pair
	children := make(map[relational.Value][]relational.Value)
	parents := make(map[relational.Value][]relational.Value)
	for _, c := range doc.NodesByTag(ct) {
		p := doc.Parent(c)
		if p == xmldb.NoNode || doc.Tag(p) != pt {
			continue
		}
		pv, cv := doc.Value(p), doc.Value(c)
		want = append(want, pair{pv, cv})
		children[pv] = append(children[pv], cv)
		parents[cv] = append(parents[cv], pv)
	}
	e := mustEdge(t, ix, pt, ct)
	var got []pair
	e.Table().Rows(func(r relational.Tuple) bool {
		got = append(got, pair{r[0], r[1]})
		return true
	})
	cmpPair := func(a, b pair) int {
		if a.p != b.p {
			return compareValues(a.p, b.p)
		}
		return compareValues(a.c, b.c)
	}
	slices.SortFunc(want, cmpPair)
	slices.SortFunc(got, cmpPair)
	if !slices.Equal(got, want) {
		t.Fatalf("%s/%s pair table %v, scan %v", pt, ct, got, want)
	}
	if len(got) > len(doc.NodesByTag(ct)) {
		t.Fatalf("%s/%s: %d pairs exceed |%s| = %d", pt, ct, len(got), ct, len(doc.NodesByTag(ct)))
	}
	distinct := func(vs []relational.Value) []relational.Value {
		vs = slices.Clone(vs)
		slices.Sort(vs)
		return slices.Compact(vs)
	}
	check := func(attr string, b wcoj.Binding, want []relational.Value) {
		if got := drain(t, mustOpen(t, e, attr, b)); !valuesEqual(got, distinct(want)) {
			t.Fatalf("%s/%s Open(%s, %v) = %v, want %v", pt, ct, attr, b, got, distinct(want))
		}
	}
	var allP, allC []relational.Value
	for _, p := range want {
		allP, allC = append(allP, p.p), append(allC, p.c)
	}
	check(pt, emptyBinding{}, allP)
	check(ct, emptyBinding{}, allC)
	absent := relational.Value(1 << 40)
	for _, pv := range append(allP, absent) {
		check(ct, oneBinding{pt, pv}, children[pv])
	}
	for _, cv := range append(allC, absent) {
		check(pt, oneBinding{ct, cv}, parents[cv])
	}
}

func compareValues(a, b relational.Value) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// edgeTagPairs lists every ordered pair of distinct tags of doc: the P-C
// edges a twig over it could name (twig tags are unique within a pattern).
func edgeTagPairs(doc *xmldb.Document) [][2]string {
	var pairs [][2]string
	for _, pt := range doc.Tags() {
		for _, ct := range doc.Tags() {
			if pt != ct {
				pairs = append(pairs, [2]string{pt, ct})
			}
		}
	}
	return pairs
}

// Property: for random documents, every edge's pair table agrees with a
// direct scan of parent pointers.
func TestEdgeIndexAgreesWithScan(t *testing.T) {
	for _, doc := range scanDocs(t) {
		ix := New(doc)
		for _, p := range edgeTagPairs(doc) {
			checkEdgeTable(t, doc, ix, p[0], p[1])
		}
	}
}

// scanDocs returns the 15 random documents TestEdgeIndexAgreesWithScan
// checks, which also seed FuzzEdgeTable's corpus.
func scanDocs(t testing.TB) []*xmldb.Document {
	rng := rand.New(rand.NewSource(21))
	docs := make([]*xmldb.Document, 15)
	for i := range docs {
		doc, err := xmldb.RandomDocument(rng, 70, relational.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

// fuzzTags are the element tags fuzzDoc draws from, those of
// xmldb.RandomDocument.
var fuzzTags = []string{"a", "b", "c", "d"}

// fuzzDoc decodes a document under a "root" element from fuzz bytes, one
// event a byte: a byte with the high bit set closes the innermost open
// element (never the root), any other opens element fuzzTags[b&3], with
// text digit (b>>2)&15 when that is below 10 and no text otherwise.
func fuzzDoc(data []byte) (*xmldb.Document, error) {
	b := xmldb.NewBuilder(relational.NewDict())
	b.Open("root")
	open := 1
	for _, c := range data {
		switch {
		case c&0x80 != 0:
			if open > 1 {
				b.Close()
				open--
			}
		default:
			b.Open(fuzzTags[c&3])
			if d := (c >> 2) & 15; d < 10 {
				b.Text(strconv.Itoa(int(d)))
			}
			open++
		}
	}
	for ; open > 0; open-- {
		b.Close()
	}
	return b.Done()
}

// encodeFuzzDoc is fuzzDoc's inverse for documents of xmldb.RandomDocument:
// the bytes that decode to doc.
func encodeFuzzDoc(doc *xmldb.Document) []byte {
	var out []byte
	stack := []xmldb.NodeID{doc.Root()}
	for id := xmldb.NodeID(1); int(id) < doc.Len(); id++ {
		for stack[len(stack)-1] != doc.Parent(id) {
			stack = stack[:len(stack)-1]
			out = append(out, 0x80)
		}
		stack = append(stack, id)
		c := byte(slices.Index(fuzzTags, doc.Tag(id)))
		text := 15
		if v := doc.Dict().String(doc.Value(id)); !xmldb.IsSyntheticValue(doc.Dict(), doc.Value(id)) {
			text, _ = strconv.Atoi(v)
		}
		out = append(out, c|byte(text)<<2)
	}
	return out
}

// FuzzEdgeTable checks every edge of a fuzzed document's index against
// the parent-pointer scan (checkEdgeTable).
func FuzzEdgeTable(f *testing.F) {
	for _, doc := range scanDocs(f) {
		f.Add(encodeFuzzDoc(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		doc, err := fuzzDoc(data)
		if err != nil {
			t.Fatal(err)
		}
		ix := New(doc)
		for _, p := range edgeTagPairs(doc) {
			checkEdgeTable(t, doc, ix, p[0], p[1])
		}
	})
}

// TestFuzzDocRoundTrip: the seed corpus decodes to the documents it was
// encoded from.
func TestFuzzDocRoundTrip(t *testing.T) {
	for _, doc := range scanDocs(t) {
		got, err := fuzzDoc(encodeFuzzDoc(doc))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != doc.Len() {
			t.Fatalf("round trip: %d nodes, want %d", got.Len(), doc.Len())
		}
		for id := xmldb.NodeID(0); int(id) < doc.Len(); id++ {
			g, w := got.Node(id), doc.Node(id)
			if g.Tag != w.Tag || g.Parent != w.Parent || got.Dict().String(g.Value) != doc.Dict().String(w.Value) {
				t.Fatalf("round trip: node %d = %+v, want %+v", id, g, w)
			}
		}
	}
}

// TestEdgeConcurrentBuild hammers the lazy pair-table build from many
// goroutines (run under -race): every tag pair is requested by 8 workers
// simultaneously and all of them must observe the same fully built table
// and read the same values from it.
func TestEdgeConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	doc := randomDoc(t, rng, 120)
	ix := New(doc)
	pairs := edgeTagPairs(doc)
	const workers = 8
	got := make([][]*wcoj.TableAtom, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*wcoj.TableAtom, len(pairs))
			for i, p := range pairs {
				e, err := ix.Edge(p[0], p[1], cachehook.BuildControl{})
				if err != nil {
					t.Error(err)
					return
				}
				// Read the built table and a projection so -race sees any
				// publication hazard, not just the map access.
				if it, err := e.Open(p[1], emptyBinding{}); err == nil {
					for ; !it.AtEnd(); it.Next() {
					}
					it.Close()
				}
				_ = e.Table().Len()
				got[w][i] = e
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range pairs {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d got a different %v edge table", w, pairs[i])
			}
		}
	}
}

// TestEdgeBuildCancelled: a build whose run is cancelled abandons with
// ErrBuildCancelled, leaves nothing built, and the next call rebuilds.
func TestEdgeBuildCancelled(t *testing.T) {
	doc, _ := parseFig1(t)
	ix := New(doc)
	_, err := ix.Edge("orderLine", "orderID", cachehook.BuildControl{Check: func() bool { return true }})
	if err != cachehook.ErrBuildCancelled {
		t.Fatalf("cancelled build: err = %v", err)
	}
	if ix.Info().Edges != 0 {
		t.Fatal("a cancelled build left an edge table")
	}
	if e := mustEdge(t, ix, "orderLine", "orderID"); e.Table().Len() != 2 {
		t.Fatalf("rebuilt table has %d rows, want 2", e.Table().Len())
	}
}
