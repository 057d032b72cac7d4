package structix

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cachehook"
	"repro/internal/faultpoint"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

// RegionADAtom is the lazy virtual relation of one cut ancestor-descendant
// twig edge: the set of (ancestor value, descendant value) pairs realized by
// the document, answered directly from the region-interval index — the
// drop-in replacement for the materialized core.ADAtom that makes XJoin+
// cheap by default. Open never materializes a pair set:
//
//   - descendant attribute, ancestor bound: a pooled stab-query cursor over
//     the descendant tag's sorted distinct values (see stabIter);
//   - ancestor attribute, descendant bound: the bound value's nodes walk
//     their parent chains, collecting matching ancestors' values into a
//     pooled sorted buffer;
//   - unbound: the exact cached projection (adProj), shared across Opens.
//
// The atom NewRegionADAtom returns holds no structure, so a prepared query
// keeping it neither builds nor pins anything. A run binds it once (Bind)
// to the two tags' runs and the edge's projection, and its Opens read only
// those; an unbound atom's Open binds for that call.
type RegionADAtom struct {
	ix      *Index
	name    string
	ancTag  string
	descTag string
	attrs   []string
	// Bound by Bind: the two tags' runs and the edge's projections.
	anc, desc *TagRuns
	proj      *adProj
}

// NewRegionADAtom builds the lazy A-D atom for (ancTag, descTag) over the
// index. The two tags must differ (twig tags are unique within a pattern).
func NewRegionADAtom(ix *Index, ancTag, descTag string) *RegionADAtom {
	if ancTag == descTag {
		panic("structix: A-D atom needs two distinct tags, got " + ancTag + "//" + descTag)
	}
	return &RegionADAtom{
		ix:      ix,
		name:    "AD[" + ancTag + "//" + descTag + "]",
		ancTag:  ancTag,
		descTag: descTag,
		attrs:   []string{ancTag, descTag},
	}
}

// Bind returns a copy of the atom bound to the structures its Opens read —
// both tags' runs and the edge's projections — resolving (building if
// needed) each under ctl once. A run that reaches the atom's attributes
// reads all three: the first of them opens unbound, the second reads the
// tag runs.
func (a *RegionADAtom) Bind(ctl cachehook.BuildControl) (RegionADAtom, error) {
	b := *a
	var err error
	if b.anc, err = a.ix.Tag(a.ancTag, ctl); err != nil {
		return b, err
	}
	if b.desc, err = a.ix.Tag(a.descTag, ctl); err != nil {
		return b, err
	}
	b.proj, err = a.ix.projections(a.ancTag, a.descTag, ctl)
	return b, err
}

// Name implements wcoj.Atom.
func (a *RegionADAtom) Name() string { return a.name }

// Attrs implements wcoj.Atom.
func (a *RegionADAtom) Attrs() []string { return a.attrs }

// Index returns the backing structural index (for observability).
func (a *RegionADAtom) Index() *Index { return a.ix }

// Size reports an upper bound on the virtual relation's value-pair
// cardinality, the number the bound LPs and the hybrid planner's cost
// model consume. Two independent caps compose, and the smaller wins:
//
//   - a projection cap — the product of the edge's distinct matching
//     ancestor and descendant value counts when the exact projections are
//     resident (which the distinct-pair set cannot exceed), else the
//     product of the two tags' node counts;
//   - the Lemma 3.2-style interval cap |descendant nodes| ×
//     NestingDepth(ancTag): laminar regions give every descendant node at
//     most NestingDepth(ancTag) matching ancestors, so on documents where
//     the ancestor tag does not nest within itself (depth 1 — the common
//     case however deep the document is) the quadratic tag product
//     collapses to the descendant node count.
//
// Residency never changes correctness, only how tight the projection cap
// is. Size builds no tag runs or projections, so planning stays lazy (the
// nesting depth is a one-pass memoized int).
func (a *RegionADAtom) Size() int {
	doc := a.ix.doc
	nd := len(doc.NodesByTag(a.descTag))
	bound := satMul(nd, a.ix.NestingDepth(a.ancTag))
	var proj int
	if na, ndv, ok := a.ix.ADProjSizes(a.ancTag, a.descTag); ok {
		proj = satMul(na, ndv)
	} else {
		proj = satMul(len(doc.NodesByTag(a.ancTag)), nd)
	}
	if proj < bound {
		bound = proj
	}
	return bound
}

// satMul multiplies two non-negative counts, saturating instead of
// overflowing (pair-count bounds on large documents can exceed int range).
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	const maxInt = int(^uint(0) >> 1)
	if a > maxInt/b {
		return maxInt
	}
	return a * b
}

// Open implements wcoj.Atom. An unbound atom binds for this call, so the
// binding's build control (cancellation, budget admission) applies to the
// builds that may cause.
func (a *RegionADAtom) Open(attr string, b wcoj.Binding) (wcoj.AtomIterator, error) {
	if err := faultpoint.Inject("structix.ad.open"); err != nil {
		return nil, err
	}
	if a.proj == nil {
		bound, err := a.Bind(wcoj.BuildControlOf(b))
		if err != nil {
			return nil, err
		}
		a = &bound
	}
	switch attr {
	case a.descTag:
		if av, ok := b.Get(a.ancTag); ok {
			return a.openDescendants(a.anc.Run(av)), nil
		}
		return wcoj.OpenValues(a.proj.descs), nil
	case a.ancTag:
		if dv, ok := b.Get(a.descTag); ok {
			return a.openAncestors(dv), nil
		}
		return wcoj.OpenValues(a.proj.ancs), nil
	default:
		return nil, fmt.Errorf("structix: atom %s has no attribute %q", a.name, attr)
	}
}

// openDescendants picks the cheaper of two equivalent cursors over the
// distinct descendant values under the bound ancestor nodes. Two binary
// searches per outermost ancestor region locate the contained run of
// descendant-tag nodes in document order; when those windows are small
// relative to the tag's distinct values (wide documents, selective
// ancestors) their values are collected into a pooled sorted buffer, and
// when they are large (deep documents, where most values qualify anyway)
// the stab-scan cursor walks the value array instead — either way no pair
// set is ever stored.
func (a *RegionADAtom) openDescendants(anc []xmldb.NodeID) wcoj.AtomIterator {
	doc := a.ix.doc
	descs := doc.NodesByTag(a.descTag)
	total := 0
	maxEnd := int32(-1)
	var windows [][2]int
	for _, aid := range anc {
		an := doc.Node(aid)
		if an.Start < maxEnd {
			continue // nested inside the previous region: same descendants
		}
		maxEnd = an.End
		lo := sort.Search(len(descs), func(i int) bool { return doc.Node(descs[i]).Start > an.Start })
		hi := lo + sort.Search(len(descs)-lo, func(i int) bool { return doc.Node(descs[lo+i]).Start > an.End })
		if lo < hi {
			total += hi - lo
			windows = append(windows, [2]int{lo, hi})
		}
	}
	if total == 0 {
		return wcoj.OpenValues(nil)
	}
	if total <= a.desc.Len()/8 {
		it := getBuf()
		for _, w := range windows {
			for _, d := range descs[w[0]:w[1]] {
				it.vals = append(it.vals, doc.Value(d))
			}
		}
		it.finish()
		return it
	}
	return openStab(doc, a.desc, anc)
}

// openAncestors walks the parent chain of every node valued dv, collecting
// the values of ancTag ancestors into a pooled sorted buffer.
func (a *RegionADAtom) openAncestors(dv relational.Value) wcoj.AtomIterator {
	doc := a.ix.doc
	it := getBuf()
	for _, d := range a.desc.Run(dv) {
		for p := doc.Parent(d); p != xmldb.NoNode; p = doc.Parent(p) {
			if doc.Tag(p) == a.ancTag {
				it.vals = append(it.vals, doc.Value(p))
			}
		}
	}
	it.finish()
	return it
}

// stabIter is the lazy descendant-values cursor: it walks the descendant
// tag's distinct values in sorted order, admitting a value iff one of its
// document-ordered nodes stabs a region of the bound ancestor nodes.
// Seek binary-searches the value array (O(log n)) and then settles forward;
// each admission test is a merge walk with early exit, so enumeration cost
// is proportional to the data actually inspected — no pair is ever stored.
type stabIter struct {
	doc *xmldb.Document
	tr  *TagRuns
	anc []xmldb.NodeID
	pos int
}

var stabPool = sync.Pool{New: func() any { return new(stabIter) }}

func openStab(doc *xmldb.Document, tr *TagRuns, anc []xmldb.NodeID) *stabIter {
	it := stabPool.Get().(*stabIter)
	it.doc, it.tr, it.anc, it.pos = doc, tr, anc, 0
	it.settle()
	return it
}

func (it *stabIter) settle() {
	for it.pos < len(it.tr.vals) && !stabs(it.doc, it.tr.runs[it.pos], it.anc) {
		it.pos++
	}
}

func (it *stabIter) AtEnd() bool           { return it.pos >= len(it.tr.vals) }
func (it *stabIter) Key() relational.Value { return it.tr.vals[it.pos] }

func (it *stabIter) Next() {
	it.pos++
	it.settle()
}

func (it *stabIter) Seek(v relational.Value) {
	if err := faultpoint.Inject("structix.stab.seek"); err != nil {
		// Seek has no error return; surfacing the injected fault as a panic
		// exercises the executors' recovery paths.
		panic(err)
	}
	vals := it.tr.vals
	it.pos += sort.Search(len(vals)-it.pos, func(i int) bool { return vals[it.pos+i] >= v })
	it.settle()
}

// NextBatch implements wcoj.BatchIterator: it fills dst with consecutive
// admitted values, running the stab-admission walk inline instead of paying
// one interface call per value.
func (it *stabIter) NextBatch(dst []relational.Value) int {
	n := 0
	for n < len(dst) && it.pos < len(it.tr.vals) {
		if stabs(it.doc, it.tr.runs[it.pos], it.anc) {
			dst[n] = it.tr.vals[it.pos]
			n++
		}
		it.pos++
	}
	return n
}

func (it *stabIter) Close() {
	it.doc, it.tr, it.anc = nil, nil, nil
	stabPool.Put(it)
}

// bufIter is a pooled cursor over a small owned value buffer, used by the
// per-binding reverse directions; Close recycles the buffer's capacity.
type bufIter struct {
	vals []relational.Value
	pos  int
}

var bufPool = sync.Pool{New: func() any { return new(bufIter) }}

func getBuf() *bufIter {
	it := bufPool.Get().(*bufIter)
	it.vals = it.vals[:0]
	it.pos = 0
	return it
}

// finish sorts and deduplicates the collected values.
func (it *bufIter) finish() { it.vals = sortDedup(it.vals) }

func (it *bufIter) AtEnd() bool           { return it.pos >= len(it.vals) }
func (it *bufIter) Key() relational.Value { return it.vals[it.pos] }
func (it *bufIter) Next()                 { it.pos++ }

func (it *bufIter) Seek(v relational.Value) {
	vals := it.vals
	it.pos += sort.Search(len(vals)-it.pos, func(i int) bool { return vals[it.pos+i] >= v })
}

// NextBatch implements wcoj.BatchIterator: one bulk copy off the sorted
// buffer instead of a Key/Next call pair per value.
func (it *bufIter) NextBatch(dst []relational.Value) int {
	n := copy(dst, it.vals[it.pos:])
	it.pos += n
	return n
}

func (it *bufIter) Close() { bufPool.Put(it) }
