// Package core implements the paper's contribution: the worst-case optimal
// multi-model join XJoin (Algorithm 1) over relational tables and XML twig
// patterns, its combined AGM-style size bound (Equation 1), the baseline
// that joins the per-model results Q1 and Q2, and the future-work extension
// that partially validates twig structure during the join.
//
// The twig's parent-child edges participate in the join as the paper's
// transformation treats them, as binary relations: each is a two-column
// table of (parent value, child value) pairs with one row per document edge,
// so a P-C relation has at most as many rows as its child tag has nodes —
// the size fact the bound (Equation 1) relies on. The XML atoms are lazy
// handles on the document's structural index. Each run binds every one of
// them once, before the join starts (bindAtoms): a P-C edge to its
// wcoj.TableAtom, compiled against the run's order like a relational
// table's, and a tag or A-D atom to the structures its Opens read, so no
// Open of the run reaches a cache.
package core

import (
	"fmt"
	"slices"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// EdgeAtom is the relation of one parent-child twig edge: the (parent
// value, child value) pairs the document realizes, one row per document
// edge, kept by the structural index as a two-column table (structix
// Index.Edge). EdgeAtom is only a lazy handle on that table: constructing
// it builds nothing, and it holds no reference, so an atom kept alive by a
// prepared query neither builds the table before it is needed nor pins it
// against the shared catalog's eviction. Each run builds the table under
// its own build control — while planning reads its size (atomSizes) or
// when it binds the atoms — and hands the executors the table's
// wcoj.TableAtom in place of this handle (bindAtoms); Open serves every
// other caller.
type EdgeAtom struct {
	name      string
	parentTag string
	childTag  string
	attrs     []string
	ix        *structix.Index
}

// NewEdgeAtom builds the handle for the P-C edge (parentTag, childTag) of a
// twig over the indexed document.
func NewEdgeAtom(ix *structix.Index, parentTag, childTag string) *EdgeAtom {
	return &EdgeAtom{
		name:      "PC[" + parentTag + "/" + childTag + "]",
		parentTag: parentTag,
		childTag:  childTag,
		attrs:     []string{parentTag, childTag},
		ix:        ix,
	}
}

// Name implements wcoj.Atom.
func (a *EdgeAtom) Name() string { return a.name }

// Attrs implements wcoj.Atom; the edge relates the two tags' values.
func (a *EdgeAtom) Attrs() []string { return a.attrs }

// Open implements wcoj.Atom through the pair table's TableAtom.Open. A cold
// Open may build the table, so the binding's build control (cancellation)
// applies to exactly that call.
func (a *EdgeAtom) Open(attr string, b wcoj.Binding) (wcoj.AtomIterator, error) {
	t, err := a.ix.Edge(a.parentTag, a.childTag, wcoj.BuildControlOf(b))
	if err != nil {
		return nil, err
	}
	return t.Open(attr, b)
}

// TagAtom is the unary virtual relation of one twig query node: the
// distinct values of document nodes with its tag. It anchors every twig
// variable to real nodes (tags that participate in no P-C edge would
// otherwise be unconstrained) and pins a rooted pattern's root to the
// document element. Like EdgeAtom it holds no reference to the tag runs,
// so constructing it builds nothing; each run resolves the runs under its
// own build control and binds the atom to a pinned copy holding its values
// (bindAtoms), and Open resolves the runs per call.
type TagAtom struct {
	name  string
	tag   string
	attrs []string
	ix    *structix.Index
	// pinned atoms know their values without the tag runs: vals is then the
	// whole value set (the document element's value, nothing, or a run's
	// resolved values). Otherwise a non-nil vals is the filter value, kept
	// iff some node holds it.
	pinned bool
	vals   []relational.Value
}

// NewTagAtom builds the unary atom for a query node. If rootOnly is set the
// atom holds only the document element's value (empty if the tag differs);
// a non-empty filter restricts the atom to that single value — the pushed
// selection of a tag="value" twig predicate.
func NewTagAtom(ix *structix.Index, tag string, rootOnly bool, filter string) *TagAtom {
	// The name must distinguish semantic variants of the same tag so that
	// multi-twig atom deduplication never merges a filtered or root-pinned
	// atom with an unconstrained one.
	name := "Tag[" + tag
	if rootOnly {
		name += "@root"
	}
	if filter != "" {
		name += "=" + filter
	}
	name += "]"
	a := &TagAtom{name: name, tag: tag, attrs: []string{tag}, ix: ix}
	doc := ix.Doc()
	if filter != "" {
		want, ok := doc.Dict().Lookup(filter)
		if !ok {
			a.pinned = true // no node holds a value the dictionary never saw
			return a
		}
		a.vals = []relational.Value{want}
	}
	if rootOnly {
		a.pinned = true
		root := doc.Root()
		v := doc.Value(root)
		if doc.Tag(root) != tag || (a.vals != nil && a.vals[0] != v) {
			a.vals = nil
		} else {
			a.vals = []relational.Value{v}
		}
	}
	return a
}

// values resolves the atom's sorted distinct values, building the tag runs
// under ctl if needed.
func (a *TagAtom) values(ctl cachehook.BuildControl) ([]relational.Value, error) {
	if a.pinned {
		return a.vals, nil
	}
	tr, err := a.ix.Tag(a.tag, ctl)
	if err != nil {
		return nil, err
	}
	return a.valuesIn(tr), nil
}

// valuesIn returns the values of an unpinned atom given its tag's runs.
func (a *TagAtom) valuesIn(tr *structix.TagRuns) []relational.Value {
	if a.vals == nil {
		return tr.Values()
	}
	if tr.Run(a.vals[0]) == nil {
		return nil
	}
	return a.vals
}

// Name implements wcoj.Atom.
func (a *TagAtom) Name() string { return a.name }

// Attrs implements wcoj.Atom.
func (a *TagAtom) Attrs() []string { return a.attrs }

// Open implements wcoj.Atom. A cold Open may build the tag runs, so the
// binding's build control (cancellation, budget admission) applies to
// exactly that call.
func (a *TagAtom) Open(attr string, b wcoj.Binding) (wcoj.AtomIterator, error) {
	if attr != a.tag {
		return nil, fmt.Errorf("core: atom %s has no attribute %q", a.name, attr)
	}
	vals, err := a.values(wcoj.BuildControlOf(b))
	if err != nil {
		return nil, err
	}
	return wcoj.OpenValues(vals), nil
}

// ADAtom is the value-level ancestor-descendant relation of one cut twig
// edge, fully materialized by walking ancestor chains — quadratic pairs in
// the worst case — into a deduplicated two-column table served through its
// TableAtom. It implements the paper's future-work extension ("filtering
// infeasible intermediate results and partially validating the twig
// structure during the joining") the expensive way; the default execution
// uses structix.RegionADAtom, which answers the same relation lazily from
// the region-interval index, and this atom is kept behind
// Options.AD == ADMaterialized as the equivalence/benchmark oracle.
type ADAtom struct {
	*wcoj.TableAtom
}

// NewADAtom materializes the value-level A-D relation for (ancTag, descTag).
func NewADAtom(ix *structix.Index, ancTag, descTag string) *ADAtom {
	doc := ix.Doc()
	t := relational.NewTable("AD["+ancTag+"//"+descTag+"]", relational.MustSchema(ancTag, descTag))
	for _, d := range doc.NodesByTag(descTag) {
		for p := doc.Parent(d); p != xmldb.NoNode; p = doc.Parent(p) {
			if doc.Tag(p) == ancTag {
				t.MustAppend(doc.Value(p), doc.Value(d))
			}
		}
	}
	t.Dedup()
	return &ADAtom{wcoj.NewTableAtom(t)}
}

// buildAtoms assembles the executor's atom set for a query: the query's
// table atoms (borrowed from the shared catalog, or private — either way
// resolved once at query construction, so no run rebuilds their indexes)
// and, for every twig, one TagAtom per twig node, one pair-table
// EdgeAtom per child edge, and one A-D atom per cut descendant edge —
// structix's lazy RegionADAtom by default, the materialized ADAtom oracle
// under ADMaterialized, none under ADPostHoc. Atoms repeated across twigs
// (same tag, same edge) are deduplicated by name; redundant copies would
// not change the join. ad selects how cut A-D edges participate and must be
// resolved (ADLazy, ADPostHoc or ADMaterialized); the bound computations
// use ADPostHoc, because A-D atoms never tighten the AGM bound (their
// cardinality is not bounded by a tag count), so bounds stay
// mode-independent. Callers go through Query.atoms, which caches the
// result per mode.
func buildAtoms(q *Query, ad ADMode) []wcoj.Atom {
	twigs := q.twigs
	var atoms []wcoj.Atom
	for _, t := range q.tableAtoms {
		atoms = append(atoms, t)
	}
	// Atom names must stay unique: with several documents, identical tags
	// produce distinct atoms (each constraining its own document's values),
	// renamed with a per-document prefix.
	prefixes := docPrefixes(twigs)
	seen := make(map[string]bool)
	add := func(ix *structix.Index, a wcoj.Atom) {
		if pre := prefixes[ix]; pre != "" {
			a = renamed{Atom: a, name: pre + a.Name()}
		}
		if !seen[a.Name()] {
			seen[a.Name()] = true
			atoms = append(atoms, a)
		}
	}
	for _, tw := range twigs {
		ix, p := tw.ix, tw.pattern
		for _, q := range p.Nodes() {
			rootOnly := q.Parent == nil && p.Rooted()
			add(ix, NewTagAtom(ix, q.Tag, rootOnly, q.ValueFilter))
			if q.Parent != nil && q.Axis == twig.Child {
				add(ix, NewEdgeAtom(ix, q.Parent.Tag, q.Tag))
			}
			if q.Parent != nil && q.Axis == twig.Descendant {
				switch ad {
				case ADLazy:
					add(ix, structix.NewRegionADAtom(ix, q.Parent.Tag, q.Tag))
				case ADMaterialized:
					add(ix, NewADAtom(ix, q.Parent.Tag, q.Tag))
				}
			}
		}
	}
	return atoms
}

// docPrefixes assigns "D<i>." name prefixes when a query spans more than
// one document; single-document queries keep bare names.
func docPrefixes(twigs []twigPart) map[*structix.Index]string {
	var order []*structix.Index
	seen := make(map[*structix.Index]bool)
	for _, tw := range twigs {
		if !seen[tw.ix] {
			seen[tw.ix] = true
			order = append(order, tw.ix)
		}
	}
	out := make(map[*structix.Index]string, len(order))
	if len(order) <= 1 {
		for _, ix := range order {
			out[ix] = ""
		}
		return out
	}
	for i, ix := range order {
		out[ix] = fmt.Sprintf("D%d.", i+1)
	}
	return out
}

// renamed wraps an atom under a different name.
type renamed struct {
	wcoj.Atom
	name string
}

func (r renamed) Name() string { return r.name }

// unwrapAtom strips the rename wrapper off an atom (atoms are renamed at
// most once).
func unwrapAtom(a wcoj.Atom) wcoj.Atom {
	if r, ok := a.(renamed); ok {
		return r.Atom
	}
	return a
}

// bindAtoms returns atoms with every XML atom bound, under ctl, to the
// structures it reads: a P-C edge becomes its pair table and the
// materialized A-D oracle its table, an unpinned tag atom a pinned copy
// holding its values (from the tag runs vs hold, where they do), and a lazy
// A-D atom its bound copy. The copies of each kind share one backing array;
// renamed atoms keep their names. Without such an atom it returns atoms.
func bindAtoms(atoms []wcoj.Atom, vs []validator, ctl cachehook.BuildControl) ([]wcoj.Atom, error) {
	var ntags, nregions int
	for _, a := range atoms {
		switch at := unwrapAtom(a).(type) {
		case *TagAtom:
			if !at.pinned {
				ntags++
			}
		case *structix.RegionADAtom:
			nregions++
		}
	}
	tags := make([]TagAtom, 0, ntags)
	regions := make([]structix.RegionADAtom, 0, nregions)
	var out []wcoj.Atom
	for i, a := range atoms {
		var b wcoj.Atom
		switch at := unwrapAtom(a).(type) {
		case *EdgeAtom:
			t, err := at.ix.Edge(at.parentTag, at.childTag, ctl)
			if err != nil {
				return nil, err
			}
			b = t
		case *ADAtom:
			b = at.TableAtom
		case *TagAtom:
			if at.pinned {
				continue
			}
			tr, err := tagRuns(vs, at.ix, at.tag, ctl)
			if err != nil {
				return nil, err
			}
			bt := *at
			bt.pinned, bt.vals = true, at.valuesIn(tr)
			tags = append(tags, bt)
			b = &tags[len(tags)-1]
		case *structix.RegionADAtom:
			r, err := at.Bind(ctl)
			if err != nil {
				return nil, err
			}
			regions = append(regions, r)
			b = &regions[len(regions)-1]
		default:
			continue
		}
		if out == nil {
			out = slices.Clone(atoms)
		}
		out[i] = b
		if _, ok := a.(renamed); ok {
			out[i] = renamed{Atom: b, name: a.Name()}
		}
	}
	if out == nil {
		return atoms, nil
	}
	return out, nil
}

// atomSizes maps each executor atom to its cardinality, reading the XML
// atoms' structures under ctl: a table's row count (the materialized A-D
// oracle's is its exact distinct pair count), a P-C edge's pair table row
// count — one row per document edge, which the transformation bounds by
// the child tag's node count — and a tag atom's distinct value count,
// building the pair tables and tag runs the execution reads anyway. A
// lazy A-D atom reports its residency-safe upper bound on the value-pair
// count (RegionADAtom.Size), which builds nothing. Upper bounds keep every
// AGM-style computation a valid bound, and give Explain and the planners
// real numbers for A-D edges instead of ignoring them.
func atomSizes(atoms []wcoj.Atom, ctl cachehook.BuildControl) (map[string]int, error) {
	sizes := make(map[string]int, len(atoms))
	for _, a := range atoms {
		switch at := unwrapAtom(a).(type) {
		case *wcoj.TableAtom:
			sizes[a.Name()] = at.Table().Len()
		case *ADAtom:
			sizes[a.Name()] = at.Table().Len()
		case *EdgeAtom:
			t, err := at.ix.Edge(at.parentTag, at.childTag, ctl)
			if err != nil {
				return nil, err
			}
			sizes[a.Name()] = t.Table().Len()
		case *TagAtom:
			vals, err := at.values(ctl)
			if err != nil {
				return nil, err
			}
			sizes[a.Name()] = len(vals)
		case *structix.RegionADAtom:
			sizes[a.Name()] = at.Size()
		default:
			return nil, fmt.Errorf("core: atom %s (%T) has no known size", a.Name(), at)
		}
	}
	return sizes, nil
}
