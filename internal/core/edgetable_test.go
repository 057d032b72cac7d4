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
)

// TestRunHandsEdgeTables: the atom list a run hands the executors holds
// each P-C edge as its resolved pair table, a *wcoj.TableAtom the
// executors compile, and the materialized A-D oracle as its table; on a
// multi-document query the renamed edges keep their document prefix. The
// query's own atom cache keeps the lazy handles.
func TestRunHandsEdgeTables(t *testing.T) {
	q, _ := multiTwigQuery(t, nil)
	atoms := q.atoms(ADMaterialized)
	got, err := resolveTables(atoms, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for i, a := range got {
		switch before := atoms[i].(type) {
		case *EdgeAtom:
			edges++
			if ta, ok := a.(*wcoj.TableAtom); !ok || ta.Name() != before.Name() {
				t.Errorf("edge %s handed over as %T %s, want its *wcoj.TableAtom", before.Name(), a, a.Name())
			}
		case *ADAtom:
			if a != wcoj.Atom(before.TableAtom) {
				t.Errorf("A-D oracle %s handed over as %T, want its table", before.Name(), a)
			}
		default:
			if a != atoms[i] {
				t.Errorf("atom %s replaced by %T", atoms[i].Name(), a)
			}
		}
	}
	if edges != 4 {
		t.Fatalf("%d P-C edges, want 4", edges)
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
	atoms = mq.atoms(ADLazy)
	got, err = resolveTables(atoms, cachehook.BuildControl{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, a := range got {
		if r, ok := atoms[i].(renamed); ok && strings.Contains(r.name, "PC[") {
			ra, ok := a.(renamed)
			if _, isTable := ra.Atom.(*wcoj.TableAtom); !ok || !isTable || a.Name() != r.name {
				t.Errorf("renamed edge %s handed over as %T %s", r.name, a, a.Name())
			}
			names = append(names, a.Name())
		}
	}
	if fmt.Sprint(names) != "[D1.PC[r/a] D2.PC[r/a]]" {
		t.Fatalf("renamed edges %v", names)
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
		if _, err := resolveTables(atoms, cachehook.BuildControl{}); err != nil {
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

// TestRunResolvesEdgesOnce: a warm run resolves each P-C edge once and
// joins over its table, so the catalog sees a few touches per run, not one
// per open of the edge (each of which would stamp the entry).
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
	if hits := cat.Stats().Hits - before; hits > 20 {
		t.Fatalf("a warm run touched the catalog %d times, want one touch per edge and a few for the tag runs", hits)
	}
}
