package structix

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

func randomDoc(t *testing.T, rng *rand.Rand, n int) *xmldb.Document {
	t.Helper()
	doc, err := xmldb.RandomDocument(rng, n, relational.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTagRunsAgreeWithScan: the per-tag runs must partition the tag's
// nodes by value, in document order, under sorted distinct values.
func TestTagRunsAgreeWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		doc := randomDoc(t, rng, 90)
		x := New(doc)
		for _, tag := range doc.Tags() {
			tr := mustTag(t, x, tag)
			vals := tr.Values()
			for i := 1; i < len(vals); i++ {
				if vals[i-1] >= vals[i] {
					t.Fatalf("Tag(%s) values not strictly increasing", tag)
				}
			}
			total := 0
			for _, v := range vals {
				run := tr.Run(v)
				total += len(run)
				last := int32(-1)
				for _, id := range run {
					nd := doc.Node(id)
					if nd.Tag != tag || nd.Value != v {
						t.Fatalf("Tag(%s) run for %v holds node %d tagged %s valued %v",
							tag, v, id, nd.Tag, nd.Value)
					}
					if nd.Start <= last {
						t.Fatalf("Tag(%s) run for %v not in document order", tag, v)
					}
					last = nd.Start
				}
			}
			if total != len(doc.NodesByTag(tag)) {
				t.Fatalf("Tag(%s) runs cover %d nodes, doc has %d", tag, total, len(doc.NodesByTag(tag)))
			}
			if tr.Run(relational.Value(1<<40)) != nil {
				t.Fatal("Run of an absent value should be nil")
			}
		}
	}
}

// drain enumerates a cursor fully.
func drain(t *testing.T, it wcoj.AtomIterator) []relational.Value {
	t.Helper()
	var out []relational.Value
	for !it.AtEnd() {
		out = append(out, it.Key())
		it.Next()
	}
	it.Close()
	return out
}

// TestConcurrentOpens hammers one shared Index from 8 goroutines (run
// under -race): lazy tag-run builds, projection builds, and both A-D
// directions race on first use, and every goroutine must see the same
// answers as a pre-computed serial pass.
func TestConcurrentOpens(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	doc := randomDoc(t, rng, 200)
	serial := New(doc)
	ad := NewRegionADAtom(serial, "a", "b")
	wantADDescs := drain(t, mustOpen(t, ad, "b", emptyBinding{}))

	shared := New(doc)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			adw := NewRegionADAtom(shared, "a", "b")
			if got := drain(t, mustOpen(t, adw, "b", emptyBinding{})); !valuesEqual(got, wantADDescs) {
				errs <- "A-D projection diverged"
				return
			}
			// Bound directions over every ancestor value.
			for _, av := range mustTag(t, shared, "a").Values() {
				want := drain(t, mustOpen(t, ad, "b", oneBinding{attr: "a", v: av}))
				got := drain(t, mustOpen(t, adw, "b", oneBinding{attr: "a", v: av}))
				if !valuesEqual(got, want) {
					errs <- "bound A-D cursor diverged"
					return
				}
			}
			for _, bv := range mustTag(t, shared, "b").Values() {
				want := drain(t, mustOpen(t, ad, "a", oneBinding{attr: "b", v: bv}))
				got := drain(t, mustOpen(t, adw, "a", oneBinding{attr: "b", v: bv}))
				if !valuesEqual(got, want) {
					errs <- "reverse A-D cursor diverged"
					return
				}
			}
			_ = shared.Info() // Info must be safe concurrently with builds
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDeepChainLinearMemory is the O(n)-memory acceptance check: on the
// depth-2000 chain the structural index (with every tag built and both
// A-D projections cached) must stay linear in the document — a few dozen
// bytes per node — where the materialized A-D relation holds Θ(n²) pairs.
func TestDeepChainLinearMemory(t *testing.T) {
	const depth = 2000
	inst, err := datagen.DeepChain(depth)
	if err != nil {
		t.Fatal(err)
	}
	doc := inst.Doc
	x := New(doc)
	for _, tag := range doc.Tags() {
		mustTag(t, x, tag)
	}
	ad := NewRegionADAtom(x, "a", "b")
	drain(t, mustOpen(t, ad, "b", emptyBinding{}))
	drain(t, mustOpen(t, ad, "a", emptyBinding{}))
	info := x.Info()
	if info.TagRuns == 0 || info.EdgeProjections == 0 {
		t.Fatalf("index not built: %+v", info)
	}
	// Each node appears once in its tag's runs (4 bytes) plus once per A-D
	// projection value (8 bytes) plus slice headers: far under 128 bytes
	// per node. A materialized pair set would need Θ(depth²/4) ≈ 10⁶
	// entries ≥ 8 MB.
	if max := int64(128 * doc.Len()); info.ApproxBytes > max {
		t.Fatalf("structural index holds %d bytes for %d nodes (> %d): not linear",
			info.ApproxBytes, doc.Len(), max)
	}
}

// TestRegionADAtomSize: the A-D cardinality report must be the minimum of
// the projection cap (tag-count product before any projection is resident,
// projection product after) and the Lemma 3.2 interval cap |desc nodes| ×
// NestingDepth(anc) — and never build a projection itself.
func TestRegionADAtomSize(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	doc := randomDoc(t, rng, 150)
	x := New(doc)
	ad := NewRegionADAtom(x, "a", "b")

	na, nb := len(doc.NodesByTag("a")), len(doc.NodesByTag("b"))
	ivl := nb * x.NestingDepth("a")
	cold := na * nb
	if ivl < cold {
		cold = ivl
	}
	if got := ad.Size(); got != cold {
		t.Fatalf("cold Size = %d, want min(tag product %d, interval %d)", got, na*nb, ivl)
	}
	if _, _, ok := x.ADProjSizes("a", "b"); ok {
		t.Fatal("Size built the projection")
	}
	// Build the projections by opening both unbound directions.
	descs := drain(t, mustOpen(t, ad, "b", emptyBinding{}))
	ancs := drain(t, mustOpen(t, ad, "a", emptyBinding{}))
	want := len(ancs) * len(descs)
	if ivl < want {
		want = ivl
	}
	if got := ad.Size(); got != want {
		t.Fatalf("warm Size = %d, want min(projection product %d, interval %d)", got, len(ancs)*len(descs), ivl)
	}
	if want > na*nb {
		t.Fatalf("Size %d exceeds tag-count product %d", want, na*nb)
	}
}

// TestNestingDepth pins the Lemma 3.2 quantity on a hand-built document:
// a nested twice within itself on one path, b never self-nested.
func TestNestingDepth(t *testing.T) {
	bld := xmldb.NewBuilder(relational.NewDict())
	bld.Open("root")
	bld.Open("a").Text("a1")
	bld.Leaf("b", "b1")
	bld.Open("a").Text("a2")
	bld.Leaf("b", "b2")
	bld.Close() // a2
	bld.Close() // a1
	bld.Leaf("a", "a3")
	bld.Close() // root
	doc, err := bld.Done()
	if err != nil {
		t.Fatal(err)
	}
	x := New(doc)
	if d := x.NestingDepth("a"); d != 2 {
		t.Fatalf("NestingDepth(a) = %d, want 2", d)
	}
	if d := x.NestingDepth("b"); d != 1 {
		t.Fatalf("NestingDepth(b) = %d, want 1", d)
	}
	if d := x.NestingDepth("absent"); d != 0 {
		t.Fatalf("NestingDepth(absent) = %d, want 0", d)
	}
	// Memoized second call agrees.
	if d := x.NestingDepth("a"); d != 2 {
		t.Fatalf("memoized NestingDepth(a) = %d, want 2", d)
	}
}

// mustTag resolves a tag's runs, failing the test on error.
func mustTag(t *testing.T, x *Index, tag string) *TagRuns {
	t.Helper()
	tr, err := x.Tag(tag, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustOpen opens an atom cursor, failing the test on error.
func mustOpen(t *testing.T, a wcoj.Atom, attr string, b wcoj.Binding) wcoj.AtomIterator {
	t.Helper()
	it, err := a.Open(attr, b)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

type emptyBinding struct{}

func (emptyBinding) Get(string) (relational.Value, bool) { return 0, false }

type oneBinding struct {
	attr string
	v    relational.Value
}

func (b oneBinding) Get(attr string) (relational.Value, bool) {
	if attr == b.attr {
		return b.v, true
	}
	return 0, false
}

func valuesEqual(a, b []relational.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
