// Package datagen generates the synthetic workloads of the evaluation: the
// paper's Figure 1 example, the running-twig instances of Examples 3.3 and
// 3.4 (Figure 3's experiment), Lemma 3.2-style worst-case constructions,
// and randomized multi-model instances for property testing.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

// PaperTwig is the running twig of Figures 2 and 3 in the XPath subset:
// A with P-C children B and D, an A-D edge to C (child E), an A-D edge from
// C to F (child H), and an A-D edge from F to G. Its derived path relations
// are exactly the paper's R3(A,B), R4(A,D), R5(C,E), R6(F,H), R7(G).
const PaperTwig = "//A[B][D][.//C[E][.//F[H][.//G]]]"

// Instance is a self-contained multi-model workload.
type Instance struct {
	Dict    *relational.Dict
	Doc     *xmldb.Document
	Pattern *twig.Pattern
	Tables  []*relational.Table
	// N is the scale parameter (nodes per twig tag).
	N int
}

// Figure1 builds the paper's Figure 1: the invoices document, the
// relational table R(orderID, userID), and the twig joining them. The
// expected query result is the paper's table
// (userID, ISBN, price) = {(jack, 978-3-16-1, 30), (tom, 634-3-12-2, 20)}.
func Figure1() (*Instance, error) {
	dict := relational.NewDict()
	doc, err := xmldb.NewBuilder(dict).
		Open("invoices").
		Open("orderLine").
		Leaf("orderID", "10963").
		Leaf("ISBN", "978-3-16-1").
		Leaf("price", "30").
		Leaf("discount", "0.1").
		Close().
		Open("orderLine").
		Leaf("orderID", "20134").
		Leaf("ISBN", "634-3-12-2").
		Leaf("price", "20").
		Leaf("discount", "0.3").
		Close().
		Close().
		Done()
	if err != nil {
		return nil, err
	}
	r := relational.NewTable("R", relational.MustSchema("orderID", "userID"))
	for _, row := range [][2]string{{"10963", "jack"}, {"20134", "tom"}, {"35768", "bob"}} {
		r.MustAppend(dict.Intern(row[0]), dict.Intern(row[1]))
	}
	pattern, err := twig.Parse("/invoices/orderLine[orderID][ISBN]/price")
	if err != nil {
		return nil, err
	}
	return &Instance{Dict: dict, Doc: doc, Pattern: pattern, Tables: []*relational.Table{r}, N: 2}, nil
}

// paperTwigDoc builds the worst-case document for the running twig at scale
// n, following the Lemma 3.2 tightness construction:
//
//   - one A node with n B children and n D children (the {A,B,D} component
//     joins to n² value combinations),
//   - a nested chain of n C nodes (each with an E child) under A, so every
//     C is an ancestor of everything below the chain,
//   - a nested chain of n F nodes (each with an H child) under the deepest
//     C, and n G leaves under the deepest F.
//
// Every tag has at most n nodes and every derived path relation has at most
// n tuples, yet the twig-only result Q2 has exactly n⁵ value tuples.
func paperTwigDoc(dict *relational.Dict, n int) (*xmldb.Document, error) {
	b := xmldb.NewBuilder(dict)
	b.Open("A").Text(val("a", 0))
	for i := 0; i < n; i++ {
		b.Leaf("B", val("b", i))
		b.Leaf("D", val("d", i))
	}
	for i := 0; i < n; i++ {
		b.Open("C").Text(val("c", i))
		b.Leaf("E", val("e", i))
	}
	for i := 0; i < n; i++ {
		b.Open("F").Text(val("f", i))
		b.Leaf("H", val("h", i))
	}
	for i := 0; i < n; i++ {
		b.Leaf("G", val("g", i))
	}
	for i := 0; i < 2*n; i++ { // close the F chain then the C chain
		b.Close()
	}
	b.Close() // A
	return b.Done()
}

// Example33 builds the instance of Example 3.3: relational R1(B,D) and
// R2(F,G,H) (diagonal, n rows each) joined with the running twig. The
// worst-case exponents are 5 for the twig alone and 7/2 for the full query.
func Example33(n int) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("datagen: scale must be positive, got %d", n)
	}
	dict := relational.NewDict()
	doc, err := paperTwigDoc(dict, n)
	if err != nil {
		return nil, err
	}
	r1 := relational.NewTable("R1", relational.MustSchema("B", "D"))
	r2 := relational.NewTable("R2", relational.MustSchema("F", "G", "H"))
	for i := 0; i < n; i++ {
		r1.MustAppend(dict.Intern(val("b", i)), dict.Intern(val("d", i)))
		r2.MustAppend(dict.Intern(val("f", i)), dict.Intern(val("g", i)), dict.Intern(val("h", i)))
	}
	return &Instance{
		Dict: dict, Doc: doc, Pattern: twig.MustParse(PaperTwig),
		Tables: []*relational.Table{r1, r2}, N: n,
	}, nil
}

// Example34 builds the Figure 3 experiment instance (Example 3.4):
// relational R1(A,B,C,D) and R2(E,F,G,H) (diagonal, n rows each) joined
// with the running twig. Exponents: Q and Q1 are 2, Q2 is 5 — so the
// baseline's XML-side intermediate result is n⁵ while the full query has at
// most n² answers (here exactly n).
func Example34(n int) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("datagen: scale must be positive, got %d", n)
	}
	dict := relational.NewDict()
	doc, err := paperTwigDoc(dict, n)
	if err != nil {
		return nil, err
	}
	r1 := relational.NewTable("R1", relational.MustSchema("A", "B", "C", "D"))
	r2 := relational.NewTable("R2", relational.MustSchema("E", "F", "G", "H"))
	for i := 0; i < n; i++ {
		r1.MustAppend(dict.Intern(val("a", 0)), dict.Intern(val("b", i)),
			dict.Intern(val("c", i)), dict.Intern(val("d", i)))
		r2.MustAppend(dict.Intern(val("e", i)), dict.Intern(val("f", i)),
			dict.Intern(val("g", i)), dict.Intern(val("h", i)))
	}
	return &Instance{
		Dict: dict, Doc: doc, Pattern: twig.MustParse(PaperTwig),
		Tables: []*relational.Table{r1, r2}, N: n,
	}, nil
}

func val(tag string, i int) string { return fmt.Sprintf("%s%d", tag, i) }

// ValidationAdversarial builds an instance that maximizes the work of
// Algorithm 1's final structural validation: n sibling a-nodes share one
// value, each carrying a distinct b child and a distinct c child. At value
// level the twig //a[b][c] admits n² pairwise-consistent tuples, but only
// the n diagonal ones have a witness (both children under the same a node).
func ValidationAdversarial(n int) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("datagen: scale must be positive, got %d", n)
	}
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	b.Open("root")
	for i := 0; i < n; i++ {
		b.Open("a").Text("A").
			Leaf("b", val("b", i)).
			Leaf("c", val("c", i)).
			Close()
	}
	b.Close()
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	return &Instance{Dict: dict, Doc: doc, Pattern: twig.MustParse("//a[b][c]"), N: n}, nil
}

// DeepChain builds the quadratic-A-D adversary: one chain of depth
// alternating "a" and "b" elements, every node carrying a distinct value.
// Under the twig //a//b each b node at depth d has ~d/2 a-ancestors, so the
// value-level A-D relation holds Θ(depth²) pairs: materializing it (the
// ADMaterialized oracle) costs quadratic time and memory, while the
// region-interval structural index stays O(depth) and answers the same
// cursors lazily. This is the workload of core's A-D benchmarks.
func DeepChain(depth int) (*Instance, error) {
	if depth < 2 {
		return nil, fmt.Errorf("datagen: chain depth must be at least 2, got %d", depth)
	}
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	b.Open("root")
	open := 1
	for i := 0; i < depth; i++ {
		tag := "a"
		if i%2 == 1 {
			tag = "b"
		}
		b.Open(tag).Text(val(tag, i))
		open++
	}
	for ; open > 0; open-- {
		b.Close()
	}
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	return &Instance{Dict: dict, Doc: doc, Pattern: twig.MustParse("//a//b"), N: depth}, nil
}

// Bushy builds the benign wide-and-shallow counterpart of DeepChain: width
// independent subtrees, each an "a" node (distinct value) wrapping a "c"
// spacer and one "b" leaf (distinct value). The //a//b relation has exactly
// width pairs, so lazy and materialized A-D handling should cost about the
// same here — the no-regression half of that comparison.
func Bushy(width int) (*Instance, error) {
	if width < 1 {
		return nil, fmt.Errorf("datagen: width must be positive, got %d", width)
	}
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	b.Open("root")
	for i := 0; i < width; i++ {
		b.Open("a").Text(val("a", i)).
			Open("c").
			Leaf("b", val("b", i)).
			Close().
			Close()
	}
	b.Close()
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	return &Instance{Dict: dict, Doc: doc, Pattern: twig.MustParse("//a//b"), N: width}, nil
}

// Shop builds the nested shop catalog: shops shop elements under one
// catalog, every odd one wrapping a nested shop, each holding itemsPer items
// with an id (97 distinct), a cat (11 distinct) and a price; R(id, user)
// maps every id to one of 17 users and S(cat, region) every cat to one of 3
// regions. The twig /catalog/shop//item[id][cat]/price joins both tables
// through its item node, and every item joins, so the query has shops ×
// itemsPer answers. The catalog, shop and item elements carry no text, so
// each gets its own synthetic value. N is the number of items.
func Shop(shops, itemsPer int) (*Instance, error) {
	if shops < 1 || itemsPer < 1 {
		return nil, fmt.Errorf("datagen: shop scale must be positive, got %d × %d", shops, itemsPer)
	}
	dict := relational.NewDict()
	b := xmldb.NewBuilder(dict)
	b.Open("catalog")
	for s := 0; s < shops; s++ {
		b.Open("shop").Leaf("name", val("s", s))
		if s%2 == 1 {
			b.Open("shop").Leaf("name", val("n", s))
		}
		for i := 0; i < itemsPer; i++ {
			b.Open("item").
				Leaf("id", val("i", (s*itemsPer+i)%97)).
				Leaf("cat", val("c", i%11)).
				Leaf("price", val("", 10+(s+i)%23)).
				Close()
		}
		if s%2 == 1 {
			b.Close()
		}
		b.Close()
	}
	b.Close()
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	r := relational.NewTable("R", relational.MustSchema("id", "user"))
	for i := 0; i < 97; i++ {
		r.MustAppend(dict.Intern(val("i", i)), dict.Intern(val("u", i%17)))
	}
	st := relational.NewTable("S", relational.MustSchema("cat", "region"))
	for c := 0; c < 11; c++ {
		st.MustAppend(dict.Intern(val("c", c)), dict.Intern(val("r", c%3)))
	}
	return &Instance{
		Dict: dict, Doc: doc, Pattern: twig.MustParse("/catalog/shop//item[id][cat]/price"),
		Tables: []*relational.Table{r, st}, N: shops * itemsPer,
	}, nil
}

// SkewedConfig parameterizes Skewed.
type SkewedConfig struct {
	// Keys is the number of distinct first-attribute keys (default 64,
	// minimum 2).
	Keys int
	// Rows is R's total row count (default 4096).
	Rows int
	// Fanout is the number of S rows joining each distinct b value
	// (default 4).
	Fanout int
	// Zipf draws key frequencies from a Zipf(1.5) law over all keys
	// instead of the default one-hot-key-owns-~90% distribution.
	Zipf bool
}

func (c *SkewedConfig) defaults() {
	if c.Keys < 2 {
		c.Keys = 64
	}
	if c.Rows == 0 {
		c.Rows = 4096
	}
	if c.Fanout == 0 {
		c.Fanout = 4
	}
}

// Skewed builds the two-table chain R(a,b) ⋈ S(b,c) whose first attribute
// is pathologically skewed — the adversary for morsel-parallel executors
// that partition work by first-attribute key. By default one hot a-key
// owns ~90% of R's rows (the rest spread uniformly over the remaining
// keys); with Zipf set, key frequencies follow a Zipf(1.5) law instead.
// Every R row carries a distinct b value and S fans each b out to Fanout
// c values, so the join work under an a-key is proportional to that key's
// row count: a per-key partitioning alone strands ~90% of the join on one
// worker, and only re-splitting within the hot key restores balance.
func Skewed(rng *rand.Rand, cfg SkewedConfig) []*relational.Table {
	cfg.defaults()
	var keyOf func() int
	if cfg.Zipf {
		z := rand.NewZipf(rng, 1.5, 1, uint64(cfg.Keys-1))
		keyOf = func() int { return int(z.Uint64()) }
	} else {
		keyOf = func() int {
			if rng.Intn(10) > 0 {
				return 0
			}
			return 1 + rng.Intn(cfg.Keys-1)
		}
	}
	r := relational.NewTable("R", relational.MustSchema("a", "b"))
	s := relational.NewTable("S", relational.MustSchema("b", "c"))
	for i := 0; i < cfg.Rows; i++ {
		b := relational.Value(cfg.Keys + i)
		r.MustAppend(relational.Value(keyOf()), b)
		for j := 0; j < cfg.Fanout; j++ {
			s.MustAppend(b, relational.Value(cfg.Keys+cfg.Rows+i*cfg.Fanout+j))
		}
	}
	r.Dedup()
	s.Dedup()
	return []*relational.Table{r, s}
}

// CyclicCoreTail builds the hybrid planner's showcase workload: a skewed
// triangle core R(a,b) ⋈ S(b,c) ⋈ T(c,a) with a long acyclic chain
// C1(c,u1) ⋈ C2(u1,u2) ⋈ … ⋈ Ck(u[k-1],uk) hanging off it.
//
// Each triangle table is the hub-and-spoke set {(0,0)} ∪ {(i,0)} ∪ {(0,i)}
// for i in 1..coreN: every pairwise join produces Θ(coreN²) rows (hub rows
// pair with every spoke) while the full triangle has only Θ(coreN)
// answers — a binary plan must materialize the quadratic intermediate the
// generic join's AGM guarantee avoids. The chain tables are identity
// bijections over the c domain, so the tail neither grows nor shrinks the
// result: it only multiplies per-level executor work, which is where a
// hash-join chain beats the generic join's per-level intersections. The
// GYO split is exact here: ear removal peels C_k..C_1 and leaves {R,S,T}
// as the cyclic core.
func CyclicCoreTail(coreN, tailLen int) ([]*relational.Table, error) {
	if coreN < 1 {
		return nil, fmt.Errorf("datagen: core scale must be positive, got %d", coreN)
	}
	if tailLen < 0 {
		return nil, fmt.Errorf("datagen: tail length must be non-negative, got %d", tailLen)
	}
	tri := func(name, x, y string) *relational.Table {
		t := relational.NewTable(name, relational.MustSchema(x, y))
		t.MustAppend(0, 0)
		for i := 1; i <= coreN; i++ {
			t.MustAppend(relational.Value(i), 0)
			t.MustAppend(0, relational.Value(i))
		}
		return t
	}
	tables := []*relational.Table{tri("R", "a", "b"), tri("S", "b", "c"), tri("T", "c", "a")}
	prev := "c"
	for l := 1; l <= tailLen; l++ {
		next := fmt.Sprintf("u%d", l)
		c := relational.NewTable(fmt.Sprintf("C%d", l), relational.MustSchema(prev, next))
		for v := 0; v <= coreN; v++ {
			c.MustAppend(relational.Value(v), relational.Value(v))
		}
		tables = append(tables, c)
		prev = next
	}
	return tables, nil
}

// CyclicCoreTailSkewed is CyclicCoreTail with the bijective chain replaced
// by Skewed's two-table chain: C1(c,u1) has a pathologically skewed c
// (reusing the morsel adversary's key distribution, with the key domain
// pinned to the triangle's c domain so the tail actually joins the core)
// and C2(u1,u2) fans each u1 out. The skew concentrates the tail's join
// work on the triangle's hub value — the stress shape for the hybrid
// seam's morsel parallelism.
func CyclicCoreTailSkewed(rng *rand.Rand, coreN int, cfg SkewedConfig) ([]*relational.Table, error) {
	tables, err := CyclicCoreTail(coreN, 0)
	if err != nil {
		return nil, err
	}
	cfg.Keys = coreN + 1
	sk := Skewed(rng, cfg)
	rename := func(t *relational.Table, name, x, y string) *relational.Table {
		out := relational.NewTable(name, relational.MustSchema(x, y))
		t.Rows(func(r relational.Tuple) bool {
			out.MustAppend(r[0], r[1])
			return true
		})
		return out
	}
	tables = append(tables,
		rename(sk[0], "C1", "c", "u1"),
		rename(sk[1], "C2", "u1", "u2"))
	return tables, nil
}

// RandomConfig parameterizes RandomMultiModel.
type RandomConfig struct {
	// NodeBudget bounds the document size (default 60).
	NodeBudget int
	// TagDomain is the per-tag distinct value count (default 4).
	TagDomain int
	// Tables is the number of relational tables to generate (default 1).
	Tables int
	// MaxTableRows bounds each table's size (default 20).
	MaxTableRows int
}

func (c *RandomConfig) defaults() {
	if c.NodeBudget == 0 {
		c.NodeBudget = 60
	}
	if c.TagDomain == 0 {
		c.TagDomain = 4
	}
	if c.MaxTableRows == 0 {
		c.MaxTableRows = 20
	}
}

// randomTwigs is the pattern catalog RandomMultiModel draws from; all tags
// are drawn from {a,b,c,d,e}.
var randomTwigs = []string{
	"//a",
	"//a/b",
	"//a//b",
	"//a[b]/c",
	"//a[b][c]",
	"//a[.//b]/c",
	"//a[b]//c[d]",
	"//a[b][d][.//c[e]]",
	"//a/b/c",
	"//a//b//c",
}

// RandomMultiModel generates a random document, a random twig from the
// catalog, and cfg.Tables random tables over the twig's tags, with values
// drawn from the same per-tag pools the document uses, so cross-model joins
// actually intersect.
func RandomMultiModel(rng *rand.Rand, cfg RandomConfig) (*Instance, error) {
	cfg.defaults()
	dict := relational.NewDict()
	tags := []string{"a", "b", "c", "d", "e"}

	b := xmldb.NewBuilder(dict)
	b.Open("root")
	open := 1
	for i := 0; i < cfg.NodeBudget; i++ {
		if open > 1 && rng.Intn(3) == 0 {
			b.Close()
			open--
			continue
		}
		tag := tags[rng.Intn(len(tags))]
		b.Open(tag)
		b.Text(val(tag, rng.Intn(cfg.TagDomain)))
		open++
	}
	for ; open > 0; open-- {
		b.Close()
	}
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}

	pattern := twig.MustParse(randomTwigs[rng.Intn(len(randomTwigs))])

	var tables []*relational.Table
	twigTags := pattern.Attrs()
	for t := 0; t < cfg.Tables; t++ {
		arity := 1 + rng.Intn(2)
		if arity > len(twigTags) {
			arity = len(twigTags)
		}
		attrs := make([]string, 0, arity)
		for _, i := range rng.Perm(len(twigTags))[:arity] {
			attrs = append(attrs, twigTags[i])
		}
		tb := relational.NewTable(fmt.Sprintf("T%d", t), relational.MustSchema(attrs...))
		rows := 1 + rng.Intn(cfg.MaxTableRows)
		tup := make(relational.Tuple, len(attrs))
		for r := 0; r < rows; r++ {
			for i, a := range attrs {
				tup[i] = dict.Intern(val(a, rng.Intn(cfg.TagDomain)))
			}
			if err := tb.Append(tup); err != nil {
				return nil, err
			}
		}
		tb.Dedup()
		tables = append(tables, tb)
	}
	return &Instance{Dict: dict, Doc: doc, Pattern: pattern, Tables: tables, N: cfg.NodeBudget}, nil
}
