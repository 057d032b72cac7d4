package structix

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relational"
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

func TestEdgeIndexFigure1(t *testing.T) {
	doc, dict := parseFig1(t)
	ix := New(doc)
	e := ix.Edge("orderLine", "orderID")
	if e.PairCount != 2 {
		t.Fatalf("PairCount = %d", e.PairCount)
	}
	if e.ParentValues().Len() != 2 || e.ChildValues().Len() != 2 {
		t.Fatalf("parent/child distinct = %d/%d", e.ParentValues().Len(), e.ChildValues().Len())
	}
	olv := doc.Value(doc.NodesByTag("orderLine")[0])
	cs := e.ChildrenOf(olv)
	v, _ := dict.Lookup("10963")
	if cs == nil || !cs.Contains(v) {
		t.Error("first orderLine should have child value 10963")
	}
	if !e.HasPair(olv, v) {
		t.Error("HasPair(firstOrderLine, 10963) = false")
	}
	ps := e.ParentsOf(v)
	if ps == nil || !ps.Contains(olv) {
		t.Error("ParentsOf(10963) missing first orderLine")
	}
	// Mismatched tag pair: empty index, not a crash.
	e2 := ix.Edge("price", "orderID")
	if e2.PairCount != 0 || e2.ParentValues().Len() != 0 {
		t.Error("price->orderID edge should be empty")
	}
	// Lazy cache returns the same instance.
	if ix.Edge("orderLine", "orderID") != e {
		t.Error("edge index not cached")
	}
}

// Property: for random documents, the edge index agrees with a direct scan
// of parent pointers, and PairCount is bounded by the child tag count
// (the size-preservation fact the paper's transformation relies on).
func TestEdgeIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		doc := randomDoc(t, rng, 70)
		ix := New(doc)
		tags := doc.Tags()
		for _, pt := range tags {
			for _, ct := range tags {
				e := ix.Edge(pt, ct)
				if e.PairCount > len(doc.NodesByTag(ct)) {
					t.Fatalf("PairCount %d exceeds |%s| = %d", e.PairCount, ct, len(doc.NodesByTag(ct)))
				}
				want := 0
				for _, c := range doc.NodesByTag(ct) {
					p := doc.Parent(c)
					if p == xmldb.NoNode || doc.Tag(p) != pt {
						continue
					}
					want++
					pv, cv := doc.Value(p), doc.Value(c)
					if !e.HasPair(pv, cv) {
						t.Fatalf("missing pair (%v,%v) for %s/%s", pv, cv, pt, ct)
					}
					if ps := e.ParentsOf(cv); ps == nil || !ps.Contains(pv) {
						t.Fatalf("ParentsOf missing")
					}
				}
				if e.PairCount != want {
					t.Fatalf("PairCount %d want %d", e.PairCount, want)
				}
			}
		}
	}
}

// TestEdgeConcurrentBuild hammers the lazy edge-index build from many
// goroutines (run under -race): every tag pair is requested by 8 workers
// simultaneously and all of them must observe the same fully built
// instance — the regression test for the unguarded ix.edges map write.
func TestEdgeConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	doc := randomDoc(t, rng, 120)
	ix := New(doc)
	tags := doc.Tags()
	var pairs [][2]string
	for _, pt := range tags {
		for _, ct := range tags {
			pairs = append(pairs, [2]string{pt, ct})
		}
	}
	const workers = 8
	got := make([][]*EdgeIndex, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*EdgeIndex, len(pairs))
			for i, p := range pairs {
				e := ix.Edge(p[0], p[1])
				// Touch the built structure so -race sees any publication
				// hazard, not just the map access.
				_ = e.PairCount + e.ParentValues().Len() + e.ChildValues().Len()
				got[w][i] = e
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range pairs {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d got a different %v edge index instance", w, pairs[i])
			}
		}
	}
}
