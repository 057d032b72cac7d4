package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/catalog"
	"repro/internal/faultpoint"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// attrBinding binds attributes by name.
type attrBinding map[string]relational.Value

func (b attrBinding) Get(attr string) (relational.Value, bool) {
	v, ok := b[attr]
	return v, ok
}

// dictValue returns the dictionary id of a text the document holds.
func dictValue(t *testing.T, doc *xmldb.Document, text string) relational.Value {
	t.Helper()
	v, ok := doc.Dict().Lookup(text)
	if !ok {
		t.Fatalf("no value %q", text)
	}
	return v
}

// TestRunHandsEdgeTables: a run binds every XML atom once. Each P-C edge
// becomes its resolved pair table and the materialized A-D oracle its
// table, both *wcoj.TableAtom the executors compile; an unpinned tag atom
// becomes a pinned copy holding its values and a lazy A-D atom its bound
// copy, and opening either touches no catalog entry; a root-pinned tag
// atom is bound already. On a multi-document query the renamed atoms keep
// their document prefix. The query's own atom cache keeps the lazy
// handles.
func TestRunHandsEdgeTables(t *testing.T) {
	doc, err := xmldb.ParseString(`<shop><item><a>1</a><b>x</b></item>`+
		`<item><a>2</a><b>y</b><sub><item><a>1</a><b>z</b></item></sub></item></shop>`, relational.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(0)
	q, err := NewQueryInputsCatalog([]TwigInput{{Doc: doc, Pattern: twig.MustParse(`/shop//item[a="1"]/b`)}}, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	ix := q.twigs[0].ix
	kinds := make(map[string]int)
	for _, ad := range []ADMode{ADMaterialized, ADLazy} {
		atoms := q.atoms(ad)
		got, err := bindAtoms(atoms, nil, cachehook.BuildControl{})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range got {
			if a.Name() != atoms[i].Name() {
				t.Errorf("atom %s bound under the name %s", atoms[i].Name(), a.Name())
			}
			switch before := atoms[i].(type) {
			case *EdgeAtom, *ADAtom:
				if _, ok := a.(*wcoj.TableAtom); !ok {
					t.Errorf("%s handed over as %T, want its *wcoj.TableAtom", before.Name(), a)
				}
				if ora, ok := before.(*ADAtom); ok && a != wcoj.Atom(ora.TableAtom) {
					t.Errorf("A-D oracle %s handed over as another table", before.Name())
				}
			case *TagAtom:
				bt, ok := a.(*TagAtom)
				if !ok || !bt.pinned {
					t.Fatalf("tag atom %s handed over as %T, want a pinned *TagAtom", before.Name(), a)
				}
				if before.pinned != (bt == before) {
					t.Errorf("tag atom %s (pinned %v) bound to itself: %v", before.Name(), before.pinned, bt == before)
				}
				want, err := before.values(cachehook.BuildControl{})
				if err != nil || fmt.Sprint(bt.vals) != fmt.Sprint(want) {
					t.Errorf("bound tag atom %s holds %v, want %v (%v)", before.Name(), bt.vals, want, err)
				}
			case *structix.RegionADAtom:
				if ra, ok := a.(*structix.RegionADAtom); !ok || ra == before {
					t.Errorf("lazy A-D atom %s handed over as %T, want its bound copy", before.Name(), a)
				}
			default:
				t.Fatalf("unexpected atom %T", before)
			}
			kinds[fmt.Sprintf("%T", atoms[i])]++
		}
		// The bound XML atoms open without touching the catalog.
		hits := cat.Stats().Hits
		for _, a := range got {
			if _, ok := a.(*wcoj.TableAtom); ok {
				continue
			}
			for _, attr := range a.Attrs() {
				for _, b := range []attrBinding{{}, {"item": dictValue(t, doc, "2")}, {"a": dictValue(t, doc, "1")}} {
					it, err := a.Open(attr, b)
					if err != nil {
						t.Fatal(err)
					}
					it.Close()
				}
			}
		}
		if d := cat.Stats().Hits - hits; d != 0 {
			t.Errorf("AD mode %v: opening the bound atoms touched the catalog %d times", ad, d)
		}
		// The pinned root tag atom reads no runs, the lazy A-D atom reads
		// its ancestor's.
		if want := map[ADMode]int{ADMaterialized: 3, ADLazy: 4}[ad]; ix.Info().TagRuns != want {
			t.Errorf("AD mode %v: %d tag runs built, want %d", ad, ix.Info().TagRuns, want)
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("covered atom kinds %v, want all four", kinds)
	}

	dict := relational.NewDict()
	var in []TwigInput
	for _, src := range []string{"<r><a>1</a></r>", "<r><a>1</a><a>2</a></r>"} {
		doc, err := xmldb.ParseString(src, dict)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, TwigInput{Doc: doc, Pattern: twig.MustParse("/r/a")})
	}
	mq, err := NewQueryInputs(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	atoms := mq.atoms(ADLazy)
	got, err := bindAtoms(atoms, nil, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, a := range got {
		r := atoms[i].(renamed)
		ra, ok := a.(renamed)
		if !ok || a.Name() != r.name {
			t.Errorf("renamed atom %s handed over as %T %s", r.name, a, a.Name())
			continue
		}
		if _, isTable := ra.Atom.(*wcoj.TableAtom); isTable == strings.Contains(r.name, "Tag[") {
			t.Errorf("renamed atom %s handed over wrapping %T", r.name, ra.Atom)
		}
		names = append(names, a.Name())
	}
	if fmt.Sprint(names) != "[D1.Tag[r@root] D1.Tag[a] D1.PC[r/a] D2.Tag[r@root] D2.Tag[a] D2.PC[r/a]]" {
		t.Fatalf("renamed atoms %v", names)
	}
	res, err := XJoin(mq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("multi-document join = %d tuples, want 1", len(res.Tuples))
	}
	for _, a := range mq.atoms(ADLazy) {
		if r := a.(renamed); strings.Contains(r.name, "PC[") {
			if _, ok := r.Atom.(*EdgeAtom); !ok {
				t.Fatalf("the query's atom cache holds %s as %T, want the lazy edge handle", r.name, r.Atom)
			}
		}
	}
}

// TestEdgeTablesKeepTableStats: a pure twig run reads its P-C edges as
// tables but reports no table indexes — those count relational tables
// only — while the edges stay structural-index entries.
func TestEdgeTablesKeepTableStats(t *testing.T) {
	q, _ := multiTwigQuery(t, nil)
	res, err := XJoin(q, Options{AD: ADLazy})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s.TableIndexes != 0 || s.TableIndexBytes != 0 {
		t.Fatalf("pure twig run reports %d table indexes (%d B)", s.TableIndexes, s.TableIndexBytes)
	}
	if info := q.twigs[0].ix.Info(); info.Edges != 4 {
		t.Fatalf("structural index holds %d edges, want 4", info.Edges)
	}
}

// TestHotEdgesSurviveColdQueries: a run resolves each P-C edge once and
// stamps its catalog entry every time, so under a budget that fits the hot
// edges plus one more entry, repeated runs interleaved with cold queries
// never evict the hot edges — the cold entries make room for each other.
func TestHotEdgesSurviveColdQueries(t *testing.T) {
	const cold = 12
	b := xmldb.NewBuilder(relational.NewDict())
	b.Open("root")
	for i := 0; i < 40; i++ {
		b.Open("item").Leaf("a", fmt.Sprint(i)).Leaf("b", fmt.Sprint(i%7))
		for c := 0; c < cold; c++ {
			b.Leaf(fmt.Sprintf("c%d", c), fmt.Sprint(i))
		}
		b.Close()
	}
	doc, err := b.Close().Done()
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Install()
	t.Cleanup(faultpoint.Reset)
	const edgeBuild = "structix.edge.build"
	cat := catalog.New(0)
	ix := cat.StructIndex(doc)
	hot := []wcoj.Atom{NewEdgeAtom(ix, "item", "a"), NewEdgeAtom(ix, "item", "b")}
	run := func(atoms ...wcoj.Atom) {
		t.Helper()
		if _, err := bindAtoms(atoms, nil, cachehook.BuildControl{}); err != nil {
			t.Fatal(err)
		}
	}
	run(hot...)
	run(NewEdgeAtom(ix, "item", "c0"))
	cat.SetBudget(cat.Stats().ResidentBytes) // the hot edges plus one cold one
	for i := 1; i < cold; i++ {
		for range 3 {
			run(hot...)
		}
		run(NewEdgeAtom(ix, "item", fmt.Sprintf("c%d", i)))
		run(hot...)
		// Two hot builds, then one per cold query: a hot edge the cold
		// query evicted would have been rebuilt by the run after it.
		if builds := faultpoint.Hits(edgeBuild); builds != 2+i+1 {
			t.Fatalf("after cold query %d: %d edge builds, want %d (%+v)", i, builds, 2+i+1, cat.Stats())
		}
	}
	if s := cat.Stats(); s.Evictions == 0 {
		t.Fatalf("the cold queries never outgrew the budget: %+v", s)
	}
}

// TestRunResolvesEdgesOnce: a warm run binds its atoms before the join and
// no Open reaches the catalog, so it touches the catalog once per distinct
// structure it reads — each P-C edge and each tag's runs, which the
// validators and the tag atoms share — not once per open.
func TestRunResolvesEdgesOnce(t *testing.T) {
	b := xmldb.NewBuilder(relational.NewDict())
	b.Open("items")
	for i := 0; i < 300; i++ {
		b.Open("item").Leaf("a", fmt.Sprint(i)).Leaf("b", fmt.Sprint(i%7)).Close()
	}
	doc, err := b.Close().Done()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(0)
	q, err := NewQueryInputsCatalog([]TwigInput{{Doc: doc, Pattern: twig.MustParse("/items/item[a]/b")}}, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := XJoin(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	before := cat.Stats().Hits
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 300 {
		t.Fatalf("%d answers, want 300", len(res.Tuples))
	}
	// Four tags' runs and three edges, all resident.
	if s := cat.Stats(); s.Hits-before != 7 || s.Entries != 7 {
		t.Fatalf("a warm run touched the catalog %d times over %d entries, want once per structure (7)", s.Hits-before, s.Entries)
	}
}

// TestHotTagRunsSurviveColdQueries: a run binds its tag atoms and A-D
// atoms once and stamps every structure they read, so under a budget that
// fits a hot twig query's structures plus one cold query's, repeated hot
// runs interleaved with cold queries never evict a hot tag run or A-D
// projection — the cold entries make room for each other.
func TestHotTagRunsSurviveColdQueries(t *testing.T) {
	const cold = 12
	b := xmldb.NewBuilder(relational.NewDict())
	b.Open("shop")
	for i := 0; i < 40; i++ {
		b.Open("item").Leaf("a", fmt.Sprint(i)).Leaf("b", fmt.Sprint(i%7))
		for c := 0; c < cold; c++ {
			b.Leaf(fmt.Sprintf("c%d", c), fmt.Sprint(i))
		}
		b.Close()
	}
	doc, err := b.Close().Done()
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Install()
	t.Cleanup(faultpoint.Reset)
	const tagBuild, adBuild = "structix.tag.build", "structix.ad.build"
	cat := catalog.New(0)
	query := func(pattern string) *Query {
		t.Helper()
		q, err := NewQueryInputsCatalog([]TwigInput{{Doc: doc, Pattern: twig.MustParse(pattern)}}, nil, cat)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	run := func(q *Query) {
		t.Helper()
		res, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 40 || res.Stats.Degraded != "" {
			t.Fatalf("%d answers (degraded %q), want 40", len(res.Tuples), res.Stats.Degraded)
		}
	}
	hot := query("//shop//item[a]/b")
	run(hot)
	run(query("//item/c0"))
	cat.SetBudget(cat.Stats().ResidentBytes) // the hot structures plus one cold query's
	for i := 1; i < cold; i++ {
		for range 3 {
			run(hot)
		}
		run(query(fmt.Sprintf("//item/c%d", i)))
		run(hot)
		// Four hot tag runs and one projection, then one tag run per cold
		// query: an evicted hot structure would have been rebuilt by the
		// run after it.
		if tags, ads := faultpoint.Hits(tagBuild), faultpoint.Hits(adBuild); tags != 4+i+1 || ads != 1 {
			t.Fatalf("after cold query %d: %d tag and %d A-D builds, want %d and 1 (%+v)", i, tags, ads, 4+i+1, cat.Stats())
		}
	}
	if s := cat.Stats(); s.Evictions == 0 {
		t.Fatalf("the cold queries never outgrew the budget: %+v", s)
	}
}
