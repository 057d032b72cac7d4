package xmatch

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

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

func fig1Doc(t *testing.T) *xmldb.Document {
	t.Helper()
	doc, err := xmldb.ParseString(figure1XML, relational.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNaiveMatchFigure1(t *testing.T) {
	doc := fig1Doc(t)
	p := twig.MustParse("/invoices/orderLine[orderID][ISBN]/price")
	ms := NaiveMatch(doc, p)
	if len(ms) != 2 {
		t.Fatalf("matches = %d want 2 (one per orderLine)", len(ms))
	}
	for _, m := range ms {
		if doc.Tag(m[0]) != "invoices" || doc.Tag(m[1]) != "orderLine" {
			t.Errorf("bad binding tags in %v", m)
		}
		for i, q := range p.Nodes() {
			if doc.Tag(m[i]) != q.Tag {
				t.Errorf("binding %d tag %s want %s", i, doc.Tag(m[i]), q.Tag)
			}
		}
	}
}

func TestNaiveMatchDescendant(t *testing.T) {
	doc := fig1Doc(t)
	// price is a descendant (grandchild) of invoices.
	if got := len(NaiveMatch(doc, twig.MustParse("//invoices//price"))); got != 2 {
		t.Fatalf("//invoices//price matches = %d want 2", got)
	}
	// but not a child.
	if got := len(NaiveMatch(doc, twig.MustParse("/invoices/price"))); got != 0 {
		t.Fatalf("/invoices/price matches = %d want 0", got)
	}
	// rooted pattern with wrong root tag matches nothing.
	if got := len(NaiveMatch(doc, twig.MustParse("/orderLine/price"))); got != 0 {
		t.Fatalf("rooted mismatch gave %d matches", got)
	}
	// unrooted version anchors anywhere.
	if got := len(NaiveMatch(doc, twig.MustParse("//orderLine/price"))); got != 2 {
		t.Fatalf("//orderLine/price matches = %d want 2", got)
	}
}

// testTwigs is a catalog of patterns exercising all edge/axis shapes.
var testTwigs = []string{
	"//a",
	"//a/b",
	"//a//b",
	"/root//a/b",
	"//a[b]/c",
	"//a[b][c]",
	"//a[.//b]/c",
	"//a[b]//c[d]",
	"//a[b][.//c[d]]",
	"//a[b][d][.//c[e]]",
	"//a//b//c",
	"//a/b/c",
	"//a/b//c",
	"//a//b/c",
	"/root/a",
	"//a[.//b][.//c]",
}

func randomDoc(t *testing.T, rng *rand.Rand, n int) *xmldb.Document {
	t.Helper()
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	tags := []string{"a", "b", "c", "d", "e", "root"}
	b.Open("root")
	open := 1
	for i := 0; i < n; i++ {
		if open > 1 && rng.Intn(3) == 0 {
			b.Close()
			open--
			continue
		}
		b.Open(tags[rng.Intn(len(tags)-1)])
		if rng.Intn(2) == 0 {
			b.Text(strconv.Itoa(rng.Intn(6)))
		}
		open++
	}
	for ; open > 0; open-- {
		b.Close()
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestTwigStackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		doc := randomDoc(t, rng, 40+rng.Intn(80))
		for _, src := range testTwigs {
			p := twig.MustParse(src)
			want := NaiveMatch(doc, p)
			got, stats := TwigStackMatch(doc, p)
			if !EqualMatchSets(got, want) {
				t.Fatalf("trial %d twig %s: TwigStack %d matches, oracle %d",
					trial, src, len(got), len(want))
			}
			if stats.Output != len(got) {
				t.Fatalf("stats.Output=%d len=%d", stats.Output, len(got))
			}
		}
	}
}

func TestTwigStackFigure1(t *testing.T) {
	doc := fig1Doc(t)
	p := twig.MustParse("/invoices/orderLine[orderID][ISBN]/price")
	ms, stats := TwigStackMatch(doc, p)
	if len(ms) != 2 {
		t.Fatalf("matches = %d want 2", len(ms))
	}
	if stats.PathSolutions < 2 {
		t.Errorf("path solutions = %d", stats.PathSolutions)
	}
}

func TestTwigStackDeepRecursion(t *testing.T) {
	// Same-tag nesting: a/a/a/... exercises self-nested stacks.
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	const depth = 12
	for i := 0; i < depth; i++ {
		b.Open("a")
	}
	for i := 0; i < depth; i++ {
		b.Close()
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	p := twig.MustParse("//a//b") // no b at all
	if got, _ := TwigStackMatch(doc, p); len(got) != 0 {
		t.Fatalf("//a//b on a-chain: %d matches", len(got))
	}

	p2 := twig.MustParse("//a")
	got2, _ := TwigStackMatch(doc, p2)
	if len(got2) != depth {
		t.Fatalf("//a on depth-%d chain: %d matches", depth, len(got2))
	}
	want := NaiveMatch(doc, p2)
	if !EqualMatchSets(got2, want) {
		t.Fatal("self-nesting mismatch with oracle")
	}
}

func TestTwigStackEmptyStreams(t *testing.T) {
	doc := fig1Doc(t)
	for _, src := range []string{"//nosuch", "//invoices/nosuch", "//nosuch[orderID]"} {
		got, stats := TwigStackMatch(doc, twig.MustParse(src))
		if len(got) != 0 || stats.Output != 0 {
			t.Errorf("%s: %d matches on absent tag", src, len(got))
		}
	}
}

func TestEqualMatchSets(t *testing.T) {
	a := []Match{{1, 2}, {3, 4}}
	b := []Match{{3, 4}, {1, 2}}
	if !EqualMatchSets(a, b) {
		t.Error("order should not matter")
	}
	if EqualMatchSets(a, []Match{{1, 2}}) {
		t.Error("different sizes equal")
	}
	if EqualMatchSets(a, []Match{{1, 2}, {3, 5}}) {
		t.Error("different content equal")
	}
}
